#include "runtime/rearrangement_loop.hpp"

#include <algorithm>
#include <bit>
#include <iterator>
#include <span>
#include <utility>
#include <vector>

#include "core/planner.hpp"
#include "moves/dead_channels.hpp"
#include "util/assert.hpp"
#include "util/rng.hpp"

namespace qrm::rt {

namespace {

/// lossy_move_order's comparator: front-most along `dir` first, then
/// (row, col). A strict total order on distinct sites.
struct LossyBefore {
  Coord d;
  explicit LossyBefore(Direction dir) : d(direction_delta(dir)) {}
  bool operator()(const Coord& a, const Coord& b) const noexcept {
    const auto ka = -(a.row * d.row + a.col * d.col);  // most-advanced site first
    const auto kb = -(b.row * d.row + b.col * d.col);
    if (ka != kb) return ka < kb;
    if (a.row != b.row) return a.row < b.row;
    return a.col < b.col;
  }
};

using Word = OccupancyGrid::Word;

/// The dead channels as bit masks over one round's grid; `any` is false
/// (and the masks empty) for an empty mask.
struct DeadLines {
  BitRow rows;  ///< bit r: row r is dead
  BitRow cols;  ///< bit c: column c is dead
  bool any = false;

  DeadLines(const OccupancyGrid& grid, const DeadChannelMask& dead) : any(!dead.empty()) {
    if (!any) return;
    rows = BitRow(static_cast<std::uint32_t>(grid.height()));
    cols = BitRow(static_cast<std::uint32_t>(grid.width()));
    // Entries past the grid name no channel of it, as in site_dead().
    for (const std::int32_t r : dead.rows)
      if (r >= 0 && r < grid.height()) rows.set(static_cast<std::uint32_t>(r));
    for (const std::int32_t c : dead.cols)
      if (c >= 0 && c < grid.width()) cols.set(static_cast<std::uint32_t>(c));
  }
};

/// Apply one planned move's sites, in this order, to a lossy world: sites
/// whose atoms were already lost simply don't move; each transported atom
/// may be lost on arrival. Sites on dead channels are skipped before any
/// RNG draw: a dead channel can neither pick an atom up (dead source — the
/// atom is frozen in place) nor drop one off (dead destination), and
/// skipping deterministically keeps worker-count invariance intact. The
/// reference for apply_lines().
std::int64_t apply_sites(OccupancyGrid& state, Direction dir, std::int32_t steps,
                         std::span<const Coord> sites, Rng& rng, double per_move_loss,
                         const DeadChannelMask& dead) {
  std::int64_t lost = 0;
  for (const Coord& s : sites) {
    if (!state.occupied(s)) continue;  // atom vanished before this command
    const Coord dest = moved(s, dir, steps);
    if (!state.in_bounds(dest)) continue;
    if (!dead.empty() && (dead.site_dead(s) || dead.site_dead(dest))) continue;
    // Path check against the *current* lossy world; a blocked atom stays
    // put (the next round's plan will handle it). Occupied cells on dead
    // lines do NOT block: a mover can never stop there (the realizer's hop
    // rounds step over dead positions), so the occupant is an atom frozen in a
    // static trap, which the transiting tweezer passes across — the same
    // transparency the planner's masked grid assumes. Treating it as an
    // obstacle would livelock the loop on a plan it can never execute.
    bool clear = true;
    for (std::int32_t k = 1; k <= steps && clear; ++k) {
      const Coord cell = moved(s, dir, k);
      if (state.occupied(cell) && !dead.site_dead(cell)) clear = false;
    }
    if (!clear) continue;
    state.clear(s);
    if (rng.bernoulli(per_move_loss)) {
      ++lost;  // atom lost in transport
    } else {
      state.set(dest);
    }
  }
  return lost;
}

/// True when apply_lines() may run `move`, a line-form command, on
/// `state`: its member words fit the grid's minor axis (no member past its
/// end), and its lines are in bounds and strictly front-first, so its sites
/// already come in lossy_move_order.
bool lines_in_order(const OccupancyGrid& state, const ParallelMove& move) {
  const bool horizontal = is_horizontal(move.dir);
  const std::int32_t lines = horizontal ? state.width() : state.height();
  const auto minors = static_cast<std::uint32_t>(horizontal ? state.height() : state.width());
  const std::size_t words = move.sites.line_words();
  if (words != (minors + BitRow::kWordBits - 1) / BitRow::kWordBits) return false;
  const Word tail = minors % BitRow::kWordBits == 0
                        ? 0
                        : ~((Word{1} << (minors % BitRow::kWordBits)) - 1);
  const Coord delta = direction_delta(move.dir);
  const std::int32_t dmaj = horizontal ? delta.col : delta.row;
  const std::span<const Word> records = move.sites.records();
  std::int64_t previous = dmaj < 0 ? -1 : lines;
  for (std::size_t at = 0; at < records.size(); at += words + 1) {
    const auto m = static_cast<std::int64_t>(records[at]);
    if (m < 0 || m >= lines || (dmaj < 0 ? m <= previous : m >= previous)) return false;
    if ((records[at + words] & tail) != 0) return false;
    previous = m;
  }
  return true;
}

/// True when the row at `row` holds an atom in columns [lo, hi] off the
/// dead columns (`dead_cols` may be null for none).
bool blocked(const Word* row, std::uint32_t lo, std::uint32_t hi, const Word* dead_cols) {
  constexpr std::uint32_t kBits = BitRow::kWordBits;
  for (std::uint32_t w = lo / kBits; w <= hi / kBits; ++w) {
    Word bits = row[w];
    if (w == lo / kBits) bits &= ~Word{0} << (lo % kBits);
    if (w == hi / kBits) bits &= ~Word{0} >> (kBits - 1 - hi % kBits);
    if (dead_cols != nullptr) bits &= ~dead_cols[w];
    if (bits != 0) return true;
  }
  return false;
}

/// apply_sites() on a line-form command a line at a time, with the same
/// outcome and RNG draws (one per moving atom, in site order). Sites of one
/// line never share a cell or a path, so each line's movers are known
/// before any of them moves. Precondition: lines_in_order(state, move).
std::int64_t apply_lines(OccupancyGrid& state, const ParallelMove& move, Rng& rng,
                         double per_move_loss, const DeadLines& dead) {
  const bool horizontal = is_horizontal(move.dir);
  const Coord delta = direction_delta(move.dir);
  const std::int32_t dmaj = horizontal ? delta.col : delta.row;
  const std::int32_t hop = move.steps * dmaj;
  const std::int32_t lines = horizontal ? state.width() : state.height();
  const std::size_t stride = state.stride();
  const std::span<const Word> grid = state.words();
  const std::size_t words = move.sites.line_words();
  const std::span<const Word> records = move.sites.records();
  std::int64_t lost = 0;
  for (std::size_t at = 0; at < records.size(); at += words + 1) {
    const auto m = static_cast<std::int32_t>(records[at]);
    const std::span<const Word> members = records.subspan(at + 1, words);
    const std::int32_t p = m + hop;
    if (p < 0 || p >= lines) continue;  // the line would leave the grid
    if (!horizontal) {
      // Line m is row m: its movers are a word AND against the path rows;
      // dead path rows do not block.
      if (dead.any && (dead.rows.test(static_cast<std::uint32_t>(m)) ||
                       dead.rows.test(static_cast<std::uint32_t>(p))))
        continue;
      for (std::size_t w = 0; w < words; ++w) {
        const auto cell = [&](std::int32_t r) { return static_cast<std::size_t>(r) * stride + w; };
        Word movers = members[w] & grid[cell(m)];
        if (dead.any) movers &= ~dead.cols.words()[w];
        for (std::int32_t k = 1; k <= move.steps && movers != 0; ++k) {
          const std::int32_t r = m + k * dmaj;
          if (!dead.any || !dead.rows.test(static_cast<std::uint32_t>(r))) movers &= ~grid[cell(r)];
        }
        if (movers == 0) continue;
        Word arrived = 0;
        for (Word bits = movers; bits != 0; bits &= bits - 1) {
          if (rng.bernoulli(per_move_loss)) {
            ++lost;  // atom lost in transport
          } else {
            arrived |= bits & (~bits + 1);
          }
        }
        state.set_word(m, w, grid[cell(m)] & ~movers);
        state.set_word(p, w, grid[cell(p)] | arrived);
      }
      continue;
    }
    // Line m is column m: each atom is a test of its row's words.
    if (dead.any && (dead.cols.test(static_cast<std::uint32_t>(m)) ||
                     dead.cols.test(static_cast<std::uint32_t>(p))))
      continue;
    const auto from = static_cast<std::uint32_t>(m);
    const auto to = static_cast<std::uint32_t>(p);
    const std::uint32_t path_lo = dmaj < 0 ? to : from + 1;
    const std::uint32_t path_hi = dmaj < 0 ? from - 1 : to;
    const Word from_bit = Word{1} << (from % BitRow::kWordBits);
    const std::size_t from_word = from / BitRow::kWordBits;
    const Word* dead_cols = dead.any ? dead.cols.words().data() : nullptr;
    for (std::size_t w = 0; w < words; ++w) {
      Word rows = members[w];
      if (dead.any) rows &= ~dead.rows.words()[w];
      for (; rows != 0; rows &= rows - 1) {
        const auto r = static_cast<std::int32_t>(w * BitRow::kWordBits +
                                                 static_cast<std::size_t>(std::countr_zero(rows)));
        const Word* row = grid.data() + static_cast<std::size_t>(r) * stride;
        if ((row[from_word] & from_bit) == 0) continue;  // atom vanished before this command
        if (blocked(row, path_lo, path_hi, dead_cols)) continue;
        state.clear({r, m});
        if (rng.bernoulli(per_move_loss)) {
          ++lost;  // atom lost in transport
        } else {
          state.set({r, p});
        }
      }
    }
  }
  return lost;
}

/// Apply one planned move to a lossy world, atoms front-first so surviving
/// lockstep chains stay valid: a line-form command a line at a time, any
/// other in lossy_move_order through the per-site reference.
std::int64_t apply_lossy_move(OccupancyGrid& state, const ParallelMove& move, Rng& rng,
                              double per_move_loss, const DeadChannelMask& dead,
                              const DeadLines& dead_lines) {
  std::vector<Coord> sorted;
  std::span<const Coord> sites = move.sites.coords();
  if (move.sites.by_line()) {
    if (lines_in_order(state, move))
      return apply_lines(state, move, rng, per_move_loss, dead_lines);
    sorted = lossy_move_order(move);
    sites = sorted;
  } else if (!std::is_sorted(sites.begin(), sites.end(), LossyBefore(move.dir))) {
    sorted = lossy_move_order(move);
    sites = sorted;
  }
  return apply_sites(state, move.dir, move.steps, sites, rng, per_move_loss, dead);
}

std::int64_t apply_background_loss(OccupancyGrid& state, Rng& rng, double p) {
  if (p <= 0.0) return 0;
  // Row-major, one draw per atom: the order of atom_positions().
  std::int64_t lost = 0;
  const std::span<const Word> words = state.words();
  for (std::size_t i = 0; i < words.size(); ++i) {
    Word kept = words[i];
    for (Word bits = words[i]; bits != 0; bits &= bits - 1) {
      if (rng.bernoulli(p)) {
        kept &= ~(bits & (~bits + 1));  // the atom at the lowest bit left
        ++lost;
      }
    }
    if (kept != words[i])
      state.set_word(static_cast<std::int32_t>(i / state.stride()), i % state.stride(), kept);
  }
  return lost;
}

/// Correlated loss burst: with probability `p` (one coin per round), kill
/// up to `length` consecutive trapped atoms in scan order, the start drawn
/// uniformly. Disabled bursts (p <= 0, the default) draw zero RNG values,
/// so pre-existing loss streams are bit-for-bit unchanged.
std::int64_t apply_burst_loss(OccupancyGrid& state, Rng& rng, double p, std::int32_t length) {
  if (p <= 0.0 || length <= 0) return 0;
  if (!rng.bernoulli(p)) return 0;
  const std::vector<Coord> atoms = state.atom_positions();
  if (atoms.empty()) return 0;
  const std::size_t start =
      static_cast<std::size_t>(rng.uniform_below(static_cast<std::uint64_t>(atoms.size())));
  const std::size_t count = std::min(static_cast<std::size_t>(length), atoms.size());
  for (std::size_t i = 0; i < count; ++i) state.clear(atoms[(start + i) % atoms.size()]);
  return static_cast<std::int64_t>(count);
}

}  // namespace

std::int64_t apply_lossy_schedule(OccupancyGrid& state, const Schedule& schedule, Rng& rng,
                                  double per_move_loss, const DeadChannelMask& dead) {
  const DeadLines dead_lines(state, dead);
  std::int64_t lost = 0;
  for (const ParallelMove& move : schedule.moves())
    lost += apply_lossy_move(state, move, rng, per_move_loss, dead, dead_lines);
  return lost;
}

std::vector<Coord> lossy_move_order(const ParallelMove& move) {
  std::vector<Coord> sites;
  sites.reserve(move.sites.size());
  std::ranges::copy(move.sites, std::back_inserter(sites));
  // Full tie-break: sites abreast of each other (equal front key) order by
  // (row, col). The front key alone left ties to std::sort's whims, and tied
  // sites are the common case — every site of a merged move on the axis
  // perpendicular to the direction shares a key.
  std::sort(sites.begin(), sites.end(), LossyBefore(move.dir));
  return sites;
}

LoopReport run_rearrangement_loop(const OccupancyGrid& initial, const LoopConfig& config) {
  const QrmPlanner planner(config.plan);
  return run_rearrangement_loop(initial, config,
                                [&](const OccupancyGrid& state) { return planner.plan(state); });
}

LoopReport run_rearrangement_loop(const OccupancyGrid& initial, const LoopConfig& config,
                                  const PlanFn& plan_round) {
  QRM_EXPECTS(config.max_rounds > 0);
  QRM_EXPECTS(config.loss.per_move_loss >= 0.0 && config.loss.per_move_loss <= 1.0);
  QRM_EXPECTS(config.loss.background_loss >= 0.0 && config.loss.background_loss <= 1.0);
  QRM_EXPECTS(config.loss.burst_loss >= 0.0 && config.loss.burst_loss <= 1.0);
  QRM_EXPECTS(plan_round != nullptr);

  LoopReport report;
  report.final_grid = initial;
  OccupancyGrid& state = report.final_grid;
  Rng rng(config.loss.derive(config.shot_index).seed);

  for (std::uint32_t round = 0; round < config.max_rounds; ++round) {
    RoundReport rr;
    rr.atoms_before = state.atom_count();
    rr.defects_before =
        static_cast<std::int64_t>(config.plan.target.area()) - state.atom_count(config.plan.target);

    if (rr.defects_before == 0) break;  // already defect-free, nothing to plan

    // Re-image (perfect detection) and plan against the current world.
    PlanResult plan = plan_round(state);
    rr.commands = plan.schedule.size();
    rr.atoms_lost = apply_lossy_schedule(state, plan.schedule, rng, config.loss.per_move_loss,
                                         config.plan.dead_channels);
    if (config.exec.keep_schedules) report.schedules.push_back(std::move(plan.schedule));
    rr.atoms_lost += apply_background_loss(state, rng, config.loss.background_loss);
    rr.atoms_lost += apply_burst_loss(state, rng, config.loss.burst_loss, config.loss.burst_length);
    rr.filled_after = state.region_full(config.plan.target);
    report.total_atoms_lost += rr.atoms_lost;
    report.rounds.push_back(rr);

    if (rr.filled_after) break;
    // Not-enough-atoms exit. Atoms frozen on dead channels can never reach
    // the target, so under a mask the budget counts only usable atoms; with
    // no mask the masked count IS the atom count, and the subtraction form
    // below avoids an O(area) copy on that hot path.
    const std::int64_t usable_atoms =
        config.plan.dead_channels.empty()
            ? rr.atoms_before - rr.atoms_lost
            : mask_dead_lines(state, config.plan.dead_channels).atom_count();
    if (usable_atoms < static_cast<std::int64_t>(config.plan.target.area())) {
      break;  // not enough atoms left to ever succeed
    }
  }
  // The one authoritative success computation: success means (and can only
  // mean) the final grid's target is defect-free. The early breaks above
  // no longer set the flag themselves, so it cannot diverge from the grid.
  report.success = state.region_full(config.plan.target);
  return report;
}

}  // namespace qrm::rt
