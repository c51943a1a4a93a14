#include "baselines/mta1.hpp"

#include "baselines/common.hpp"
#include "moves/executor.hpp"
#include "util/assert.hpp"

namespace qrm::baselines {

namespace {

/// Locate the k-th atom (0-based, ascending) of a line by scanning it from
/// position 0 — the per-step "analysis" a naive sequential controller
/// performs. Returns the position; the scan result is load-bearing (it is
/// the source coordinate of the next move), so it cannot be elided.
std::int32_t locate_kth_atom(const OccupancyGrid& state, Axis axis, std::int32_t line,
                             std::int32_t k) {
  const std::int32_t length = axis == Axis::Rows ? state.width() : state.height();
  std::int32_t seen = 0;
  for (std::int32_t p = 0; p < length; ++p) {
    const Coord site = axis == Axis::Rows ? Coord{line, p} : Coord{p, line};
    if (state.occupied(site)) {
      if (seen == k) return p;
      ++seen;
    }
  }
  QRM_ENSURES_MSG(false, "MTA1 lost track of an atom");
  return -1;
}

/// Sequential controllers re-verify the whole frame between deliveries
/// (they interleave imaging with motion); model that as a full-grid scan
/// whose result is checked against the conserved atom count.
std::int64_t full_frame_scan(const OccupancyGrid& state) {
  std::int64_t count = 0;
  for (std::int32_t r = 0; r < state.height(); ++r)
    for (std::int32_t c = 0; c < state.width(); ++c)
      if (state.occupied({r, c})) ++count;
  return count;
}

/// Deliver one line's atoms to their targets strictly sequentially: one
/// atom at a time, one unit step per command, re-scanning before each step.
void deliver_line(OccupancyGrid& state, Axis axis, const LineAssignment& assignment,
                  Schedule& schedule, PassInfo& info, std::int64_t expected_atoms) {
  const auto n = static_cast<std::int32_t>(assignment.targets.size());
  const Direction toward = axis == Axis::Rows ? Direction::West : Direction::North;
  const Direction away = axis == Axis::Rows ? Direction::East : Direction::South;

  // Toward-origin movers first (ascending rank), then away movers
  // (descending), so no delivery is ever blocked.
  const auto deliver = [&](std::int32_t k, Direction dir) {
    while (true) {
      const std::int32_t pos = locate_kth_atom(state, axis, assignment.line, k);
      const std::int32_t goal = assignment.targets[static_cast<std::size_t>(k)];
      const bool wants = dir == toward ? pos > goal : pos < goal;
      if (!wants) break;
      const Coord site = axis == Axis::Rows ? Coord{assignment.line, pos}
                                            : Coord{pos, assignment.line};
      const ParallelMove move{dir, 1, {&site, 1}};
      apply_move_unchecked(state, move);
      schedule.push_back(move);
      info.unit_rounds += 1;
    }
  };

  bool any_motion = false;
  for (std::int32_t k = 0; k < n; ++k) {
    const std::int32_t before = locate_kth_atom(state, axis, assignment.line, k);
    if (before > assignment.targets[static_cast<std::size_t>(k)]) {
      QRM_ENSURES_MSG(full_frame_scan(state) == expected_atoms, "MTA1 lost an atom");
      deliver(k, toward);
      any_motion = true;
      ++info.atoms_moved;
    }
  }
  for (std::int32_t k = n - 1; k >= 0; --k) {
    const std::int32_t before = locate_kth_atom(state, axis, assignment.line, k);
    if (before < assignment.targets[static_cast<std::size_t>(k)]) {
      QRM_ENSURES_MSG(full_frame_scan(state) == expected_atoms, "MTA1 lost an atom");
      deliver(k, away);
      any_motion = true;
      ++info.atoms_moved;
    }
  }
  if (any_motion) ++info.lines_with_motion;
}

}  // namespace

PlanResult Mta1Algorithm::plan(const OccupancyGrid& initial, const Region& target) const {
  PlanResult result;
  result.final_grid = initial;
  OccupancyGrid& state = result.final_grid;

  const GlobalPlacement placement = compute_balanced_placement(state, target);
  result.stats.feasible = placement.feasible;
  const std::int64_t atoms = state.atom_count();

  PassInfo rows;
  rows.axis = Axis::Rows;
  for (const auto& a : placement.row_assignments)
    deliver_line(state, Axis::Rows, a, result.schedule, rows, atoms);
  result.stats.passes.push_back(rows);

  PassInfo cols;
  cols.axis = Axis::Cols;
  for (const auto& a : compute_band_columns(state, target))
    deliver_line(state, Axis::Cols, a, result.schedule, cols, atoms);
  result.stats.passes.push_back(cols);

  result.stats.iterations = 1;
  finalize_stats(result, target);
  return result;
}

}  // namespace qrm::baselines
