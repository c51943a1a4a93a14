#include "runtime/rearrangement_loop.hpp"

#include <algorithm>
#include <memory>
#include <span>
#include <utility>

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

/// Apply one planned move to a lossy world: sites whose atoms were already
/// lost simply don't move; each transported atom may be lost on arrival.
/// Atoms are moved front-first so surviving lockstep chains stay valid.
/// Sites on dead channels are skipped before any RNG draw: a dead channel
/// can neither pick an atom up (dead source — the atom is frozen in place)
/// nor drop one off (dead destination), and skipping deterministically
/// keeps delta-vs-scratch and worker-count invariance intact.
std::int64_t apply_lossy_move(OccupancyGrid& state, const ParallelMove& move, Rng& rng,
                              double per_move_loss, const DeadChannelMask& dead) {
  // Legalized plans already list their sites in this order (front-first
  // lines, minors ascending), so the copy and sort are the exception.
  std::vector<Coord> sorted;
  std::span<const Coord> sites = move.sites;
  if (!std::is_sorted(move.sites.begin(), move.sites.end(), LossyBefore(move.dir))) {
    sorted = lossy_move_order(move);
    sites = sorted;
  }
  std::int64_t lost = 0;
  for (const Coord& s : sites) {
    if (!state.occupied(s)) continue;  // atom vanished before this command
    const Coord dest = moved(s, move.dir, move.steps);
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
    for (std::int32_t k = 1; k <= move.steps && clear; ++k) {
      const Coord cell = moved(s, move.dir, k);
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

std::int64_t apply_background_loss(OccupancyGrid& state, Rng& rng, double p) {
  if (p <= 0.0) return 0;
  std::int64_t lost = 0;
  for (const Coord& site : state.atom_positions()) {
    if (rng.bernoulli(p)) {
      state.clear(site);
      ++lost;
    }
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

std::vector<Coord> lossy_move_order(const ParallelMove& move) {
  std::vector<Coord> sites = move.sites;
  // Full tie-break: sites abreast of each other (equal front key) order by
  // (row, col). The front key alone left ties to std::sort's whims, and tied
  // sites are the common case — every site of a merged move on the axis
  // perpendicular to the direction shares a key.
  std::sort(sites.begin(), sites.end(), LossyBefore(move.dir));
  return sites;
}

LoopReport run_rearrangement_loop(const OccupancyGrid& initial, const LoopConfig& config) {
  if (config.exec.replan == ReplanMode::Delta) {
    // One stateful replanner for the whole loop: round k+1 reuses round k's
    // untouched quadrant kernels, bit-identical to scratch by construction.
    auto replanner = std::make_shared<DeltaReplanner>(config.plan);
    LoopReport report = run_rearrangement_loop(
        initial, config, [replanner](const OccupancyGrid& state) { return replanner->plan(state); });
    report.replan = replanner->stats();
    return report;
  }
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

    for (const ParallelMove& move : plan.schedule.moves()) {
      rr.atoms_lost +=
          apply_lossy_move(state, move, rng, config.loss.per_move_loss, config.plan.dead_channels);
    }
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
