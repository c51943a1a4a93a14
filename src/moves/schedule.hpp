#pragma once
/// \file schedule.hpp
/// Move representation: what the rearrangement analysis produces and what is
/// ultimately handed to the AWG.

#include <algorithm>
#include <cstdint>
#include <ranges>
#include <span>
#include <vector>

#include "lattice/coord.hpp"
#include "lattice/direction.hpp"

namespace qrm {

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
  std::span<const Coord> sites;  ///< source coordinates, unique

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
/// Flat: one record per command and every command's sites back to back in
/// one array, so a schedule is two heap blocks however many commands it
/// holds. moves() and operator[] return views into those arrays; appending
/// may move them, so a view lives only until the schedule next grows.
class Schedule {
 public:
  /// Appends a command of `count` sites moving `steps` in `dir`, and
  /// returns its sites for the caller to fill. Throws PreconditionError
  /// when the schedule would hold 2^32 sites or more.
  [[nodiscard]] std::span<Coord> add_move(Direction dir, std::int32_t steps, std::size_t count);
  /// Appends a copy of `move`, whose sites must not view this schedule
  /// (append() repeats a schedule's own moves).
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

  friend bool operator==(const Schedule&, const Schedule&) = default;

 private:
  /// 32-bit site indices keep a record at 16 bytes; every plan-cache entry
  /// and kept schedule holds one per command.
  struct Command {
    Direction dir = Direction::West;
    std::int32_t steps = 1;
    std::uint32_t first = 0;  ///< index of its first site in sites_
    std::uint32_t count = 0;

    friend bool operator==(const Command&, const Command&) = default;
  };

  [[nodiscard]] ParallelMove view(const Command& c) const noexcept {
    return {c.dir, c.steps, std::span<const Coord>(sites_).subspan(c.first, c.count)};
  }

  std::vector<Command> commands_;
  std::vector<Coord> sites_;
};

}  // namespace qrm
