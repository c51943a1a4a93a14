#include "moves/aod.hpp"

#include <algorithm>
#include <bit>
#include <map>
#include <utility>

#include "moves/executor.hpp"
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

/// One axis of the AOD cross-product check at word speed: does the occupancy
/// line `occ` hold a set bit that is also in `mask` (a trap the batch's AOD
/// lines would create) but is neither a member of the batch (`own`) nor the
/// candidate's own position (`exclude`)? Equivalent to the per-cell scan
///   any c in mask: occ(c) && !own(c) && c != exclude
/// but one AND-NOT sweep over the line's words.
bool aod_bystander_on_line(const BitRow& occ, const BitRow& mask, const BitRow& own,
                           std::int32_t exclude) {
  const auto& ow = occ.words();
  const auto& mw = mask.words();
  const auto& sw = own.words();
  const auto xw = static_cast<std::size_t>(exclude) / BitRow::kWordBits;
  const auto xbit = BitRow::Word{1} << (static_cast<std::uint32_t>(exclude) % BitRow::kWordBits);
  for (std::size_t wi = 0; wi < ow.size(); ++wi) {
    BitRow::Word bystanders = ow[wi] & mw[wi] & ~sw[wi];
    if (wi == xw) bystanders &= ~xbit;
    if (bystanders != 0) return true;
  }
  return false;
}

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
  for (std::int32_t r = 0; r < grid.height(); ++r) {
    const auto& words = grid.row(r).words();
    if (!horizontal) {
      std::ranges::copy(words, line(occ_, r).begin());
      continue;
    }
    const std::size_t w_r = static_cast<std::size_t>(r) / BitRow::kWordBits;
    const Word bit_r = Word{1} << (static_cast<std::uint32_t>(r) % BitRow::kWordBits);
    for (std::size_t w = 0; w < words.size(); ++w) {
      for (Word bits = words[w]; bits != 0; bits &= bits - 1) {
        const auto c = static_cast<std::int32_t>(w * BitRow::kWordBits +
                                                 static_cast<std::size_t>(std::countr_zero(bits)));
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
  // Only the sites the rounds moved atoms out of or into differ.
  for (std::size_t i = 0; i < occ_.size(); ++i) {
    for (Word changed = occ_[i] ^ initial_[i]; changed != 0; changed &= changed - 1) {
      const int b = std::countr_zero(changed);
      const auto m = static_cast<std::int32_t>(i / words_);
      const auto x = static_cast<std::int32_t>((i % words_) * BitRow::kWordBits +
                                               static_cast<std::size_t>(b));
      grid.set(site(m, x), ((occ_[i] >> b) & 1U) != 0);
    }
  }
}

bool UnitRounds::one_command_legal(std::int32_t dmaj) {
  // acc_ doubles as the minors the mover lines select.
  std::ranges::fill(acc_, Word{0});
  for (const std::int32_t m : mover_lines_) {
    const std::span<const Word> movers = line(mov_, m);
    for (std::size_t w = 0; w < words_; ++w) acc_[w] |= movers[w];
  }
  for (const std::int32_t m : mover_lines_) {
    const std::int32_t p = m + dmaj;
    if (p < 0 || p >= lines_) return false;
    const std::span<const Word> movers = line(mov_, m);
    const std::span<const Word> ahead = line(occ_, p);
    const std::span<const Word> ahead_movers = line(mov_, p);
    const std::span<const Word> here = line(occ_, m);
    for (std::size_t w = 0; w < words_; ++w) {
      // A mover's destination holding a non-mover, or an AOD cross trap
      // holding a bystander, each veto the single command.
      if ((movers[w] & ahead[w] & ~ahead_movers[w]) != 0 ||
          (here[w] & acc_[w] & ~movers[w]) != 0)
        return false;
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

// The greedy partition's next command. It equals the per-candidate scan
// (candidates front-first, minors ascending; a candidate joins when its
// destination is free or vacated by a member and neither new AOD line
// catches a bystander), because on one line every candidate faces the same
// tests but one: the destination line is final (it is in front), and so
// are the minors earlier lines selected. Per line:
//   * destination and minor-axis checks mask the line at once (byst_ holds
//     the minors whose selection would catch a bystander on an earlier
//     selected line);
//   * the line-axis check counts this line's atoms on already selected
//     minors: two or more reject every candidate, and a single one, b,
//     admits the candidates from b on if b itself passes (it is then a
//     member, not a bystander), and none otherwise.
std::size_t UnitRounds::select_greedy(std::int32_t dmaj) {
  std::ranges::fill(acc_, Word{0});
  std::ranges::fill(byst_, Word{0});
  accepted_.clear();
  std::size_t selected = 0;
  for (const std::int32_t m : mover_lines_) {
    const std::int32_t p = m + dmaj;
    if (p < 0 || p >= lines_) continue;  // the line would walk off the grid
    const std::span<const Word> movers = line(mov_, m);
    const std::span<const Word> ahead = line(occ_, p);
    const std::span<const Word> ahead_members = line(mem_, p);
    Word any = 0;
    for (std::size_t w = 0; w < words_; ++w) {
      surv_[w] = movers[w] & ~(ahead[w] & ~ahead_members[w]) & ~byst_[w];
      any |= surv_[w];
    }
    if (any == 0) continue;
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

void UnitRounds::step(Direction dir, std::vector<ParallelMove>& out) {
  QRM_EXPECTS_MSG(is_horizontal(dir) == horizontal_, "unit round direction off the mask axis");
  const Coord delta = direction_delta(dir);
  const std::int32_t dmaj = horizontal_ ? delta.col : delta.row;  // -1 or +1
  // Lines holding movers, front-first: nearest the destination side first.
  mover_lines_.clear();
  for (std::int32_t i = 0; i < lines_; ++i) {
    const std::int32_t m = dmaj < 0 ? i : lines_ - 1 - i;
    if (any_bit(line(mov_, m))) mover_lines_.push_back(m);
  }
  const bool whole = one_command_legal(dmaj);
  while (!mover_lines_.empty()) {
    const std::size_t selected = whole ? select_all() : select_greedy(dmaj);
    QRM_ENSURES_MSG(selected > 0,
                    "legalize made no progress; the intended move set is not realisable");
    std::vector<Coord>& sites = out.emplace_back(ParallelMove{dir, 1, {}}).sites;
    sites.reserve(selected);
    // Lines go front-first, so a destination line has already given up its
    // own members when the line behind moves in (lockstep semantics).
    for (const std::int32_t m : accepted_) {
      const std::span<Word> members = line(mem_, m);
      const std::span<Word> from = line(occ_, m);
      const std::span<Word> to = line(occ_, m + dmaj);
      const std::span<Word> movers = line(mov_, m);
      const std::span<Word> moved = line(next_, m + dmaj);
      for (std::size_t w = 0; w < words_; ++w) {
        for (Word bits = members[w]; bits != 0; bits &= bits - 1) {
          const auto x = static_cast<std::int32_t>(
              w * BitRow::kWordBits + static_cast<std::size_t>(std::countr_zero(bits)));
          sites.push_back(site(m, x));
        }
        from[w] &= ~members[w];
        QRM_ENSURES_MSG((to[w] & members[w]) == 0, "legalize produced a colliding batch");
        to[w] |= members[w];
        moved[w] |= members[w];
        movers[w] &= ~members[w];
        members[w] = 0;
      }
    }
    std::erase_if(mover_lines_, [this](std::int32_t m) { return !any_bit(line(mov_, m)); });
  }
  std::swap(mov_, next_);
}

namespace {

/// Validates `sites` (in bounds, occupied, no duplicates) and returns them
/// front-first: major lines nearest the destination side first, minors
/// ascending, so chain followers see their leaders handled first.
/// Bucketing by major line gives that order in linear time and doubles as
/// the duplicate check: a duplicated site would pass the occupancy check
/// (both copies see the same atom) and then be emitted twice inside one
/// ParallelMove — one tweezer picking the same atom up twice.
std::vector<Coord> front_first_sites(const OccupancyGrid& grid, std::span<const Coord> sites,
                                     Direction dir) {
  const bool horiz = is_horizontal(dir);
  const Coord delta = direction_delta(dir);
  const std::int32_t dmaj = horiz ? delta.col : delta.row;
  const std::int32_t nmaj = horiz ? grid.width() : grid.height();
  const std::int32_t nmin = horiz ? grid.height() : grid.width();

  OccupancyGrid rmaj(nmaj, nmin);
  BitRow majors_present(static_cast<std::uint32_t>(nmaj));
  std::optional<Coord> duplicate;
  for (const Coord& s : sites) {
    QRM_EXPECTS_MSG(grid.in_bounds(s) && grid.occupied(s), "legalize: site must hold an atom");
    const Coord bucket{horiz ? s.col : s.row, horiz ? s.row : s.col};
    if (rmaj.occupied(bucket) && !duplicate.has_value()) duplicate = s;
    rmaj.set(bucket);
    majors_present.set(static_cast<std::uint32_t>(bucket.row));
  }
  QRM_EXPECTS_MSG(!duplicate.has_value(),
                  "legalize: duplicate site " + qrm::to_string(*duplicate) +
                      " in the intended move set");

  std::vector<Coord> ordered;
  ordered.reserve(sites.size());
  for (std::int32_t i = 0; i < nmaj; ++i) {
    const std::int32_t m = dmaj < 0 ? i : nmaj - 1 - i;
    if (!majors_present.test(static_cast<std::uint32_t>(m))) continue;
    const auto& ws = rmaj.row(m).words();
    for (std::size_t w = 0; w < ws.size(); ++w) {
      for (BitRow::Word bits = ws[w]; bits != 0; bits &= bits - 1) {
        const auto x = static_cast<std::int32_t>(w * BitRow::kWordBits +
                                                 static_cast<std::size_t>(std::countr_zero(bits)));
        ordered.push_back(horiz ? Coord{x, m} : Coord{m, x});
      }
    }
  }
  return ordered;
}

}  // namespace

std::vector<ParallelMove> legalize(const OccupancyGrid& grid, std::span<const Coord> sites,
                                   Direction dir, std::int32_t steps) {
  QRM_EXPECTS(steps >= 1);
  std::vector<ParallelMove> out;
  if (sites.empty()) return out;
  std::vector<Coord> remaining = front_first_sites(grid, sites, dir);

  if (steps == 1) {
    const bool horiz = is_horizontal(dir);
    UnitRounds round(grid, horiz);
    for (const Coord& s : remaining) round.add_mover(horiz ? s.col : s.row, horiz ? s.row : s.col);
    round.step(dir, out);
    return out;
  }

  // Multi-step moves (dead-channel hops) keep the per-candidate scan.
  {
    ParallelMove whole{dir, steps, remaining};
    const bool legal = !validate_move(grid, whole, /*check_aod=*/true).has_value();
    if (legal) return {std::move(whole)};
  }

  OccupancyGrid scratch = grid;
  // Greedy partition on word-parallel state. The accept decisions and their
  // order are bit-identical to the historical per-cell std::set scan; only
  // the data structures changed: `member`/`member_t` are the batch-membership
  // set as bit grids, `scratch_t` mirrors `scratch` transposed so the column
  // cross-check reads whole words exactly like the row check, and
  // `rowmask`/`colmask` are the accepted row/column sets.
  OccupancyGrid scratch_t = scratch.flipped(Flip::Transpose);
  OccupancyGrid member(grid.height(), grid.width());
  OccupancyGrid member_t(grid.width(), grid.height());
  BitRow colmask(static_cast<std::uint32_t>(grid.width()));
  BitRow rowmask(static_cast<std::uint32_t>(grid.height()));

  while (!remaining.empty()) {
    std::vector<Coord> batch;
    std::vector<Coord> deferred;

    for (const Coord& s : remaining) {
      bool ok = true;
      // Path/collision: every swept cell must be free or vacated by an atom
      // already accepted into this lockstep batch.
      for (std::int32_t k = 1; k <= steps && ok; ++k) {
        const Coord cell = moved(s, dir, k);
        if (!scratch.in_bounds(cell)) {
          ok = false;
        } else if (scratch.occupied(cell) && !member.occupied(cell)) {
          ok = false;
        }
      }
      // AOD cross-product: new traps created by adding row s.row / col s.col
      // must not capture bystanders.
      if (ok) ok = !aod_bystander_on_line(scratch.row(s.row), colmask, member.row(s.row), s.col);
      if (ok)
        ok = !aod_bystander_on_line(scratch_t.row(s.col), rowmask, member_t.row(s.col), s.row);
      if (ok) {
        batch.push_back(s);
        member.set(s);
        member_t.set({s.col, s.row});
        rowmask.set(static_cast<std::uint32_t>(s.row));
        colmask.set(static_cast<std::uint32_t>(s.col));
      } else {
        deferred.push_back(s);
      }
    }

    QRM_ENSURES_MSG(!batch.empty(),
                    "legalize made no progress; the intended move set is not realisable");

    // Apply the batch to the scratch state: clear all sources, then set all
    // destinations (lockstep semantics). Membership resets for the next batch.
    for (const Coord& s : batch) {
      scratch.clear(s);
      scratch_t.clear({s.col, s.row});
      member.clear(s);
      member_t.clear({s.col, s.row});
    }
    for (const Coord& s : batch) {
      const Coord d = moved(s, dir, steps);
      QRM_ENSURES_MSG(!scratch.occupied(d), "legalize produced a colliding batch");
      scratch.set(d);
      scratch_t.set({d.col, d.row});
    }
    rowmask.reset();
    colmask.reset();

    out.push_back(ParallelMove{dir, steps, std::move(batch)});
    remaining = std::move(deferred);
  }
  return out;
}

}  // namespace qrm
