#pragma once
/// \file schedule.hpp
/// Move representation: what the rearrangement analysis produces and what is
/// ultimately handed to the AWG.

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <iterator>
#include <ranges>
#include <span>
#include <concepts>
#include <vector>

#include "lattice/coord.hpp"
#include "lattice/direction.hpp"

namespace qrm {

/// The source sites of one command, in execution order, in one of two
/// forms:
///   * site form: a span of coordinates;
///   * line form: the command's AOD lines front-first, each a record of
///     1 + line_words() words: the major line (a grid column for W/E moves,
///     a grid row for N/S ones), then its member mask (bit x = the site at
///     minor coordinate x of that line).
/// Iterating a line-form list expands it line by line, minors ascending.
/// A view: it is valid while the array it was taken from is alive and
/// unchanged in size.
class SiteList {
 public:
  using Word = std::uint64_t;

  /// Input iterator over the sites; a line-form list yields each site as
  /// it decodes it.
  class iterator {
   public:
    using iterator_category = std::input_iterator_tag;
    using iterator_concept = std::forward_iterator_tag;
    using value_type = Coord;
    using difference_type = std::ptrdiff_t;
    using reference = Coord;

    iterator() = default;

    Coord operator*() const noexcept {
      if (words_ == 0) return *site_;
      const auto major = static_cast<std::int32_t>(line_[0]);
      const auto minor = static_cast<std::int32_t>(word_ * 64) + std::countr_zero(bits_);
      return horizontal_ ? Coord{minor, major} : Coord{major, minor};
    }
    iterator& operator++() noexcept {
      if (words_ == 0) {
        ++site_;
      } else {
        bits_ &= bits_ - 1;
        settle();
      }
      return *this;
    }
    iterator operator++(int) noexcept {
      iterator old = *this;
      ++*this;
      return old;
    }
    friend bool operator==(const iterator& a, const iterator& b) noexcept {
      return a.site_ == b.site_ && a.line_ == b.line_ && a.word_ == b.word_ && a.bits_ == b.bits_;
    }

   private:
    friend class SiteList;

    /// Moves to the next member bit at or after the current one: the rest
    /// of this line's words, then the next lines; at the end it equals
    /// end().
    void settle() noexcept {
      while (bits_ == 0 && line_ != end_) {
        if (++word_ == words_) {
          word_ = 0;
          line_ += words_ + 1;
          if (line_ == end_) return;
        }
        bits_ = line_[1 + word_];
      }
    }

    const Coord* site_ = nullptr;  ///< site form
    const Word* line_ = nullptr;   ///< line form: the current record
    const Word* end_ = nullptr;
    std::size_t word_ = 0;  ///< member word of the current record
    Word bits_ = 0;         ///< its members not yet visited
    std::size_t words_ = 0;
    bool horizontal_ = false;
  };

  SiteList() = default;
  /// Site form over a contiguous range of coordinates.
  template <std::ranges::contiguous_range R>
    requires std::same_as<std::ranges::range_value_t<R>, Coord>
  SiteList(R&& sites) noexcept  // NOLINT: a coordinate array is a site list
      : sites_(std::ranges::data(sites)), size_(std::ranges::size(sites)) {}

  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  [[nodiscard]] bool empty() const noexcept { return size_ == 0; }
  [[nodiscard]] iterator begin() const noexcept {
    iterator it = end();
    if (!by_line()) {
      it.site_ = sites_;
    } else if (lines_ > 0) {
      it.line_ = records_;
      it.bits_ = records_[1];
      it.settle();
    }
    return it;
  }
  [[nodiscard]] iterator end() const noexcept {
    iterator it;
    it.words_ = line_words_;
    it.horizontal_ = horizontal_;
    if (by_line()) {
      it.line_ = it.end_ = records_ + records().size();
    } else {
      it.site_ = sites_ + size_;
    }
    return it;
  }

  /// True for a line-form list.
  [[nodiscard]] bool by_line() const noexcept { return line_words_ != 0; }
  /// Site form: the coordinates (empty for a line-form list).
  [[nodiscard]] std::span<const Coord> coords() const noexcept {
    return by_line() ? std::span<const Coord>() : std::span<const Coord>(sites_, size_);
  }
  /// Line form: member words per line (0 for a site-form list).
  [[nodiscard]] std::size_t line_words() const noexcept { return line_words_; }
  /// Line form: the records, line_words() + 1 words each.
  [[nodiscard]] std::span<const Word> records() const noexcept {
    if (!by_line()) return {};
    return {records_, static_cast<std::size_t>(lines_) * (line_words_ + 1)};
  }

 private:
  friend class Schedule;

  /// Line form: `lines` records of `line_words` member words each
  /// (line_words >= 1), `count` member bits in all; `horizontal` for W/E
  /// moves.
  SiteList(const Word* records, std::uint32_t lines, std::uint32_t line_words, bool horizontal,
           std::size_t count) noexcept
      : records_(records),
        size_(count),
        lines_(lines),
        line_words_(line_words),
        horizontal_(horizontal) {}

  union {  // by_line() tells which
    const Coord* sites_ = nullptr;
    const Word* records_;
  };
  std::size_t size_ = 0;
  std::uint32_t lines_ = 0;       ///< line form
  std::uint32_t line_words_ = 0;  ///< line form; 0 for site form
  bool horizontal_ = false;
};

/// One simultaneous multi-tweezer move: every atom listed in `sites` is
/// displaced by `steps` unit moves in direction `dir`, in lockstep.
///
/// This is exactly the operation the 2D-AOD hardware supports (Sec. II-B of
/// the paper): a set of atoms moved "at the same time when they are to be
/// moved towards the same direction with the same step size".
///
/// A view: `sites` belongs to the Schedule or array it was taken from,
/// which must outlive the move.
struct ParallelMove {
  Direction dir = Direction::West;
  std::int32_t steps = 1;
  SiteList sites;  ///< source coordinates, unique

  friend bool operator==(const ParallelMove& a, const ParallelMove& b) {
    return a.dir == b.dir && a.steps == b.steps && std::ranges::equal(a.sites, b.sites);
  }
};

/// Aggregate statistics of a schedule, used by benches and reports.
struct ScheduleStats {
  std::size_t parallel_moves = 0;   ///< number of AWG commands
  std::size_t atom_moves = 0;       ///< sum over moves of |sites|
  std::int64_t total_steps = 0;     ///< sum over moves of |sites| * steps
  std::int32_t max_steps = 0;       ///< largest single-move step count
  std::size_t max_parallelism = 0;  ///< largest |sites| in one move
  double mean_parallelism = 0.0;    ///< atom_moves / parallel_moves
};

/// An ordered list of parallel moves. Order matters: moves execute
/// sequentially and each is validated against the grid state it sees.
///
/// Flat: one record per command, the site-form commands' sites back to
/// back in one array and the line-form commands' line records in another
/// (see SiteList), so a schedule is three heap blocks however many
/// commands it holds. The append call picks a command's form: add_lines()
/// for the mask-native AOD partition (unit_rounds.hpp), add_move() and
/// push_back() for producers with no line structure; append() keeps each
/// command's form. moves() and operator[] return views
/// into those arrays; appending may move them, so a view lives only until
/// the schedule next grows.
class Schedule {
 public:
  using Word = SiteList::Word;

  /// Appends a site-form command of `count` sites moving `steps` in `dir`,
  /// and returns its sites for the caller to fill. Throws PreconditionError
  /// when steps < 1 or the schedule would hold 2^32 sites or more.
  [[nodiscard]] std::span<Coord> add_move(Direction dir, std::int32_t steps, std::size_t count);
  /// Appends a line-form command of `lines` lines with `line_words` member
  /// words each and `count` member bits in all, moving `steps` in `dir`,
  /// and returns its records (SiteList) for the caller to fill, lines
  /// front-first. Throws PreconditionError unless steps >= 1 and
  /// line_words >= 1, or when the schedule would hold 2^32 sites or line
  /// words or more.
  [[nodiscard]] std::span<Word> add_lines(Direction dir, std::int32_t steps, std::size_t lines,
                                          std::size_t line_words, std::size_t count);
  /// Appends a copy of `move` in site form, its sites in the order it
  /// lists them; they must not view this schedule (append() repeats a
  /// schedule's own moves).
  void push_back(const ParallelMove& move) {
    std::ranges::copy(move.sites, add_move(move.dir, move.steps, move.sites.size()).begin());
  }
  /// Appends `other`'s moves; `other` may be this schedule. Throws
  /// PreconditionError when the schedule would hold 2^32 sites or more.
  void append(const Schedule& other);

  [[nodiscard]] bool empty() const noexcept { return commands_.empty(); }
  [[nodiscard]] std::size_t size() const noexcept { return commands_.size(); }
  [[nodiscard]] ParallelMove operator[](std::size_t i) const { return view(commands_[i]); }
  /// Every move in execution order. The range borrows this schedule: under
  /// C++20 `for (auto m : legalize(...).moves())` dangles, so name the
  /// schedule first.
  [[nodiscard]] auto moves() const {
    return commands_ | std::views::transform([this](const Command& c) { return view(c); });
  }

  [[nodiscard]] ScheduleStats stats() const noexcept;
  /// Bytes the command records, sites and line records take: a
  /// deterministic measure of the schedule's size (allocator slack
  /// excluded).
  [[nodiscard]] std::size_t bytes() const noexcept {
    return commands_.size() * sizeof(Command) + sites_.size() * sizeof(Coord) +
           lines_.size() * sizeof(Word);
  }

  /// Equal when both list the same commands with the same sites in the
  /// same order, whatever form each command is stored in.
  friend bool operator==(const Schedule& a, const Schedule& b) {
    return std::ranges::equal(a.moves(), b.moves());
  }

 private:
  /// 32-bit indices keep a record at 24 bytes; every plan-cache entry and
  /// kept schedule holds one per command.
  struct Command {
    Direction dir = Direction::West;
    std::int32_t steps = 1;
    std::uint32_t first = 0;       ///< first site in sites_, or first word in lines_
    std::uint32_t count = 0;       ///< sites
    std::uint32_t lines = 0;       ///< line form: line records
    std::uint32_t line_words = 0;  ///< line form: member words per line; 0 for site form
  };

  [[nodiscard]] ParallelMove view(const Command& c) const noexcept {
    if (c.line_words == 0)
      return {c.dir, c.steps, std::span<const Coord>(sites_).subspan(c.first, c.count)};
    const bool horizontal = is_horizontal(c.dir);
    return {c.dir, c.steps,
            SiteList(lines_.data() + c.first, c.lines, c.line_words, horizontal, c.count)};
  }

  std::vector<Command> commands_;
  std::vector<Coord> sites_;
  std::vector<Word> lines_;
  std::size_t site_count_ = 0;  ///< sites over every command
};

}  // namespace qrm
