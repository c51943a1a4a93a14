#include "baselines/psca.hpp"

#include <algorithm>
#include <map>

#include "baselines/common.hpp"
#include "moves/aod.hpp"
#include "moves/executor.hpp"
#include "util/assert.hpp"

namespace qrm::baselines {

namespace {

/// One line's fixed placement: ordered targets for its atoms (identified by
/// rank: the i-th atom of the line, in ascending position, goes to
/// targets[i]; ranks are stable because moves preserve order).
using TargetsByLine = std::map<std::int32_t, std::vector<std::int32_t>>;

/// Re-scan the grid and advance every atom that is still short of its
/// target by one step in `dir`; returns the number of atoms advanced.
/// Deliberately recomputes (and re-sorts) each line's atom list every round
/// — the defining cost structure of PSCA.
std::size_t advance_round(OccupancyGrid& state, Axis axis, const TargetsByLine& targets,
                          Direction dir, Schedule& schedule, PassInfo& info,
                          bool aod_legalize) {
  const bool toward_origin = dir == Direction::West || dir == Direction::North;
  std::vector<Coord> movers;
  for (const auto& [line, line_targets] : targets) {
    // Fresh scan of the line's atoms...
    std::vector<std::int32_t> atoms;
    const std::int32_t length = axis == Axis::Rows ? state.width() : state.height();
    for (std::int32_t p = 0; p < length; ++p) {
      const Coord site = axis == Axis::Rows ? Coord{line, p} : Coord{p, line};
      if (state.occupied(site)) atoms.push_back(p);
    }
    // ...and an explicit (re-)sort, as the published algorithm sorts its
    // candidate lists every compression step.
    std::sort(atoms.begin(), atoms.end());
    QRM_ENSURES_MSG(atoms.size() == line_targets.size(),
                    "PSCA line population changed unexpectedly");
    for (std::size_t i = 0; i < atoms.size(); ++i) {
      const std::int32_t current = atoms[i];
      const std::int32_t goal = line_targets[i];
      const bool wants = toward_origin ? current > goal : current < goal;
      if (wants) {
        movers.push_back(axis == Axis::Rows ? Coord{line, current} : Coord{current, line});
      }
    }
  }
  if (movers.empty()) return 0;
  if (aod_legalize) {
    const Schedule legal = legalize(state, movers, dir, 1);
    for (const ParallelMove& sub : legal.moves()) apply_move_unchecked(state, sub);
    schedule.append(legal);
  } else {
    const ParallelMove move{dir, 1, movers};
    apply_move_unchecked(state, move);
    schedule.push_back(move);
  }
  info.unit_rounds += 1;
  return movers.size();
}

/// Run both direction phases of one axis to completion.
PassInfo run_axis(OccupancyGrid& state, Axis axis, const TargetsByLine& targets,
                  Schedule& schedule, bool aod_legalize) {
  PassInfo info;
  info.axis = axis;
  info.lines_with_motion = targets.size();
  const Direction toward = axis == Axis::Rows ? Direction::West : Direction::North;
  const Direction away = axis == Axis::Rows ? Direction::East : Direction::South;
  std::size_t moved_once = 0;
  while (true) {
    const std::size_t n = advance_round(state, axis, targets, toward, schedule, info, aod_legalize);
    if (n == 0) break;
    moved_once = std::max(moved_once, n);
  }
  while (true) {
    const std::size_t n = advance_round(state, axis, targets, away, schedule, info, aod_legalize);
    if (n == 0) break;
    moved_once = std::max(moved_once, n);
  }
  info.atoms_moved = moved_once;  // upper bound on distinct movers per axis
  return info;
}

TargetsByLine targets_of(const std::vector<LineAssignment>& assignments) {
  TargetsByLine out;
  for (const auto& a : assignments) out.emplace(a.line, a.targets);
  return out;
}

}  // namespace

PlanResult PscaAlgorithm::plan(const OccupancyGrid& initial, const Region& target) const {
  PlanResult result;
  result.final_grid = initial;
  OccupancyGrid& state = result.final_grid;

  // The placement family is shared with Tetris; the analysis cost is not.
  const GlobalPlacement placement = compute_balanced_placement(state, target);
  result.stats.feasible = placement.feasible;
  result.stats.passes.push_back(run_axis(state, Axis::Rows,
                                         targets_of(placement.row_assignments),
                                         result.schedule, options_.aod_legalize));

  const std::vector<LineAssignment> columns = compute_band_columns(state, target);
  result.stats.passes.push_back(run_axis(state, Axis::Cols, targets_of(columns),
                                         result.schedule, options_.aod_legalize));

  result.stats.iterations = 1;
  finalize_stats(result, target);
  return result;
}

}  // namespace qrm::baselines
