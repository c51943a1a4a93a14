#include "moves/aod.hpp"

#include <algorithm>
#include <bit>
#include <map>
#include <utility>

#include "moves/unit_rounds.hpp"
#include "util/assert.hpp"

namespace qrm {

std::optional<std::string> aod_violation(const OccupancyGrid& grid, const ParallelMove& move) {
  if (move.sites.empty()) return std::nullopt;
  // Word-parallel cross-product check: a violation in row r is any bit of
  //   occupied(r) AND cols-mask AND NOT members(r),
  // where the cols-mask has one bit per selected column and members(r) marks
  // the move's own sites in that row. One pass over the touched rows'
  // words replaces the O(|rows|*|cols|) per-cell std::set scan. The map keeps
  // rows ascending so the reported first violation (lowest row, then lowest
  // column) matches the historical per-cell scan order.
  BitRow colmask(static_cast<std::uint32_t>(grid.width()));
  for (const Coord& s : move.sites)
    if (s.col >= 0 && s.col < grid.width()) colmask.set(static_cast<std::uint32_t>(s.col));
  std::map<std::int32_t, BitRow> members;
  for (const Coord& s : move.sites) {
    if (s.row < 0 || s.row >= grid.height()) continue;
    const auto it = members.try_emplace(s.row, static_cast<std::uint32_t>(grid.width())).first;
    if (s.col >= 0 && s.col < grid.width()) it->second.set(static_cast<std::uint32_t>(s.col));
  }
  for (const auto& [r, member_row] : members) {
    const auto& occ = grid.row(r).words();
    const auto& sel = colmask.words();
    const auto& own = member_row.words();
    for (std::size_t wi = 0; wi < occ.size(); ++wi) {
      const BitRow::Word bystanders = occ[wi] & sel[wi] & ~own[wi];
      if (bystanders != 0) {
        const auto c = static_cast<std::int32_t>(wi * BitRow::kWordBits +
                                                 static_cast<std::size_t>(std::countr_zero(bystanders)));
        return "AOD cross trap at " + qrm::to_string(Coord{r, c}) +
               " holds a bystander atom not part of the move";
      }
    }
  }
  return std::nullopt;
}

namespace {

bool any_bit(std::span<const UnitRounds::Word> bits) {
  return std::ranges::any_of(bits, [](UnitRounds::Word w) { return w != 0; });
}

}  // namespace

UnitRounds::UnitRounds(const OccupancyGrid& grid, bool horizontal)
    : horizontal_(horizontal),
      lines_(horizontal ? grid.width() : grid.height()),
      minors_(horizontal ? grid.height() : grid.width()),
      words_((static_cast<std::size_t>(minors_) + BitRow::kWordBits - 1) / BitRow::kWordBits),
      occ_(static_cast<std::size_t>(lines_) * words_),
      mov_(occ_.size()),
      next_(occ_.size()),
      mem_(occ_.size()),
      acc_(words_),
      byst_(words_),
      surv_(words_) {
  mover_lines_.reserve(static_cast<std::size_t>(lines_));
  accepted_.reserve(static_cast<std::size_t>(lines_));
  const std::span<const Word> grid_words = grid.words();
  if (!horizontal) {
    std::ranges::copy(grid_words, occ_.begin());  // the grid's own layout: line r is row r
  } else {
    for (std::size_t i = 0; i < grid_words.size(); ++i) {
      const std::size_t r = i / grid.stride();
      const std::size_t w_r = r / BitRow::kWordBits;
      const Word bit_r = Word{1} << (r % BitRow::kWordBits);
      const std::size_t c0 = (i % grid.stride()) * BitRow::kWordBits;
      for (Word bits = grid_words[i]; bits != 0; bits &= bits - 1) {
        const auto c =
            static_cast<std::int32_t>(c0 + static_cast<std::size_t>(std::countr_zero(bits)));
        line(occ_, c)[w_r] |= bit_r;
      }
    }
  }
  initial_ = occ_;
}

void UnitRounds::add_mover(std::int32_t major, std::int32_t minor) {
  QRM_EXPECTS(major >= 0 && major < lines_ && minor >= 0 && minor < minors_);
  const std::size_t w = static_cast<std::size_t>(minor) / BitRow::kWordBits;
  const Word bit = Word{1} << (static_cast<std::uint32_t>(minor) % BitRow::kWordBits);
  QRM_EXPECTS_MSG((line(occ_, major)[w] & bit) != 0, "a mover must hold an atom");
  Word& mover = line(mov_, major)[w];
  QRM_EXPECTS_MSG((mover & bit) == 0, "duplicate mover");
  mover |= bit;
}

void UnitRounds::arrive(std::int32_t major, std::int32_t minor) {
  QRM_EXPECTS(major >= 0 && major < lines_ && minor >= 0 && minor < minors_);
  Word& mover = line(mov_, major)[static_cast<std::size_t>(minor) / BitRow::kWordBits];
  const Word bit = Word{1} << (static_cast<std::uint32_t>(minor) % BitRow::kWordBits);
  QRM_ENSURES_MSG((mover & bit) != 0, "realizer failed to deliver an atom");
  mover &= ~bit;
}

void UnitRounds::store(OccupancyGrid& grid) const {
  QRM_EXPECTS(grid.width() == (horizontal_ ? lines_ : minors_) &&
              grid.height() == (horizontal_ ? minors_ : lines_));
  // Only the words the rounds moved atoms out of or into differ. Vertical
  // masks are the grid's own rows; horizontal ones hold its columns.
  for (std::size_t i = 0; i < occ_.size(); ++i) {
    if (occ_[i] == initial_[i]) continue;
    const auto m = static_cast<std::int32_t>(i / words_);
    if (!horizontal_) {
      grid.set_word(m, i % words_, occ_[i]);
      continue;
    }
    for (Word changed = occ_[i] ^ initial_[i]; changed != 0; changed &= changed - 1) {
      const int b = std::countr_zero(changed);
      const auto x = static_cast<std::int32_t>((i % words_) * BitRow::kWordBits +
                                               static_cast<std::size_t>(b));
      grid.set({x, m}, ((occ_[i] >> b) & 1U) != 0);  // line m is column m
    }
  }
}

bool UnitRounds::one_command_legal(std::int32_t dmaj, std::int32_t steps) {
  // acc_ doubles as the minors the mover lines select.
  std::ranges::fill(acc_, Word{0});
  for (const std::int32_t m : mover_lines_) {
    const std::span<const Word> movers = line(mov_, m);
    for (std::size_t w = 0; w < words_; ++w) acc_[w] |= movers[w];
  }
  for (const std::int32_t m : mover_lines_) {
    const std::int32_t p = m + steps * dmaj;
    if (p < 0 || p >= lines_) return false;
    const std::span<const Word> movers = line(mov_, m);
    const std::span<const Word> ahead = line(occ_, m + dmaj);
    const std::span<const Word> ahead_movers = line(mov_, m + dmaj);
    const std::span<const Word> here = line(occ_, m);
    for (std::size_t w = 0; w < words_; ++w) {
      // A mover's next cell holding a non-mover, or an AOD cross trap
      // holding a bystander, each veto the single command.
      if ((movers[w] & ahead[w] & ~ahead_movers[w]) != 0 ||
          (here[w] & acc_[w] & ~movers[w]) != 0)
        return false;
    }
    // The rest of a hop's swept cells.
    for (std::int32_t k = 2; k <= steps; ++k) {
      const std::span<const Word> swept = line(occ_, m + k * dmaj);
      const std::span<const Word> swept_movers = line(mov_, m + k * dmaj);
      for (std::size_t w = 0; w < words_; ++w)
        if ((movers[w] & swept[w] & ~swept_movers[w]) != 0) return false;
    }
  }
  return true;
}

std::size_t UnitRounds::select_all() {
  accepted_ = mover_lines_;
  std::size_t selected = 0;
  for (const std::int32_t m : accepted_) {
    const std::span<const Word> movers = line(mov_, m);
    const std::span<Word> members = line(mem_, m);
    for (std::size_t w = 0; w < words_; ++w) {
      members[w] = movers[w];
      selected += static_cast<std::size_t>(std::popcount(movers[w]));
    }
  }
  return selected;
}

// The greedy partition's next command. It equals a per-candidate scan
// (candidates front-first, minors ascending; a candidate joins when each
// cell it sweeps is free or vacated by a member and neither new AOD line
// catches a bystander; tests/moves_test.cpp keeps one as the reference),
// because on one line every candidate faces the same tests but one: the
// swept lines are final (they are in front), and so are the minors earlier
// lines selected. Per line:
//   * swept-cell and minor-axis checks mask the line at once (byst_ holds
//     the minors whose selection would catch a bystander on an earlier
//     selected line);
//   * the line-axis check counts this line's atoms on already selected
//     minors: two or more reject every candidate, and a single one, b,
//     admits the candidates from b on if b itself passes (it is then a
//     member, not a bystander), and none otherwise.
std::size_t UnitRounds::select_greedy(std::int32_t dmaj, std::int32_t steps) {
  std::ranges::fill(acc_, Word{0});
  std::ranges::fill(byst_, Word{0});
  accepted_.clear();
  std::size_t selected = 0;
  for (const std::int32_t m : mover_lines_) {
    const std::int32_t p = m + steps * dmaj;
    if (p < 0 || p >= lines_) continue;  // the line would walk off the grid
    // The line-axis (gate) test first: it rejects most scanned lines, and
    // both tests only reject, so their order leaves the partition as it is.
    const std::span<const Word> here = line(occ_, m);
    int gates = 0;
    std::size_t gate_word = 0;
    Word gate_bit = 0;
    for (std::size_t w = 0; w < words_ && gates < 2; ++w) {
      Word hit = here[w] & acc_[w];
      if (hit == 0) continue;
      if (gates == 0) {
        gate_word = w;
        gate_bit = hit & (~hit + 1);
        hit &= hit - 1;
        gates = 1;
      }
      if (hit != 0) gates = 2;
    }
    if (gates == 2) continue;
    const std::span<const Word> movers = line(mov_, m);
    const std::span<const Word> ahead = line(occ_, m + dmaj);
    const std::span<const Word> ahead_members = line(mem_, m + dmaj);
    Word any = 0;
    for (std::size_t w = 0; w < words_; ++w) {
      surv_[w] = movers[w] & ~(ahead[w] & ~ahead_members[w]) & ~byst_[w];
      any |= surv_[w];
    }
    // The rest of a hop's swept cells.
    for (std::int32_t k = 2; k <= steps && any != 0; ++k) {
      const std::span<const Word> swept = line(occ_, m + k * dmaj);
      const std::span<const Word> swept_members = line(mem_, m + k * dmaj);
      any = 0;
      for (std::size_t w = 0; w < words_; ++w) {
        surv_[w] &= ~(swept[w] & ~swept_members[w]);
        any |= surv_[w];
      }
    }
    if (any == 0) continue;
    if (gates == 1) {
      if ((surv_[gate_word] & gate_bit) == 0) continue;
      for (std::size_t w = 0; w < gate_word; ++w) surv_[w] = 0;
      surv_[gate_word] &= ~(gate_bit - 1);
    }
    const std::span<Word> members = line(mem_, m);
    for (std::size_t w = 0; w < words_; ++w) {
      members[w] = surv_[w];
      acc_[w] |= surv_[w];
      byst_[w] |= here[w] & ~surv_[w];
      selected += static_cast<std::size_t>(std::popcount(surv_[w]));
    }
    accepted_.push_back(m);
  }
  return selected;
}

void UnitRounds::step(Direction dir, std::int32_t steps, Schedule& out) {
  QRM_EXPECTS_MSG(is_horizontal(dir) == horizontal_, "round direction off the mask axis");
  QRM_EXPECTS(steps >= 1);
  const Coord delta = direction_delta(dir);
  const std::int32_t dmaj = horizontal_ ? delta.col : delta.row;  // -1 or +1
  const std::int32_t hop = steps * dmaj;
  // Lines holding movers, front-first: nearest the destination side first.
  mover_lines_.clear();
  for (std::int32_t i = 0; i < lines_; ++i) {
    const std::int32_t m = dmaj < 0 ? i : lines_ - 1 - i;
    if (any_bit(line(mov_, m))) mover_lines_.push_back(m);
  }
  const bool whole = one_command_legal(dmaj, steps);
  while (!mover_lines_.empty()) {
    const std::size_t selected = whole ? select_all() : select_greedy(dmaj, steps);
    QRM_ENSURES_MSG(selected > 0,
                    "legalize made no progress; the intended move set is not realisable");
    // The command as its lines, front-first, each the major index and its
    // member words.
    Word* record = out.add_lines(dir, steps, accepted_.size(), words_, selected).data();
    // Lines go front-first, so a destination line has already given up its
    // own members when the line behind moves in (lockstep semantics).
    bool emptied = false;  // only accepted lines lose movers
    for (const std::int32_t m : accepted_) {
      const std::span<Word> members = line(mem_, m);
      const std::span<Word> from = line(occ_, m);
      const std::span<Word> to = line(occ_, m + hop);
      const std::span<Word> movers = line(mov_, m);
      const std::span<Word> moved = line(next_, m + hop);
      *record++ = static_cast<Word>(m);
      Word left = 0;
      for (std::size_t w = 0; w < words_; ++w) {
        *record++ = members[w];
        from[w] &= ~members[w];
        QRM_ENSURES_MSG((to[w] & members[w]) == 0, "legalize produced a colliding batch");
        to[w] |= members[w];
        moved[w] |= members[w];
        movers[w] &= ~members[w];
        left |= movers[w];
        members[w] = 0;
      }
      emptied = emptied || left == 0;
    }
    if (emptied)
      std::erase_if(mover_lines_, [this](std::int32_t m) { return !any_bit(line(mov_, m)); });
  }
  std::swap(mov_, next_);
}

Schedule legalize(const OccupancyGrid& grid, std::span<const Coord> sites, Direction dir,
                  std::int32_t steps) {
  QRM_EXPECTS(steps >= 1);
  Schedule out;
  if (sites.empty()) return out;
  const bool horiz = is_horizontal(dir);
  UnitRounds round(grid, horiz);
  for (const Coord& s : sites) round.add_mover(horiz ? s.col : s.row, horiz ? s.row : s.col);
  round.step(dir, steps, out);
  return out;
}

}  // namespace qrm
