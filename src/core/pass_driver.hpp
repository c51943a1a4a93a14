#pragma once
/// \file pass_driver.hpp
/// Pass-by-pass execution of the QRM schedule analysis.
///
/// Both the behavioural planner and the FPGA cycle model run the *same*
/// sequence of quadrant passes; the planner simply applies them, while the
/// accelerator model also charges hardware time for each. PassDriver owns
/// that shared sequencing so the two can never diverge.

#include <array>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "core/config.hpp"
#include "core/quadrant_plan.hpp"
#include "lattice/quadrant.hpp"

namespace qrm {

/// One synchronised pass over all four quadrants.
struct QuadrantPass {
  Axis axis = Axis::Rows;
  bool balance = false;  ///< demand-balance placement vs plain compaction
  /// Quadrant-local input grids the pass starts from (kernel input data).
  std::array<OccupancyGrid, 4> local_grids;
  /// Quadrant-local line assignments the pass computes (kernel output).
  std::array<std::vector<LineAssignment>, 4> local_assignments;
  /// Demand outcome per quadrant (meaningful only when balance is true);
  /// the cycle model cross-checks its balance units against these.
  std::array<BalanceReport, 4> balance_reports;
};

/// Quadrant `q`'s local assignments on `axis` lowered to global lines, in
/// kernel order: what apply() realizes per quadrant without
/// merge_quadrants. Local lines map to global lines of the same axis
/// (quadrant flips never transpose); positions mirror for quadrants whose
/// local axis points away from the global one, so their arrays are read
/// back to front to stay ascending. Throws PreconditionError for a line
/// outside the quadrant.
[[nodiscard]] std::vector<LineAssignment> lower_assignments(const QuadrantGeometry& geometry,
                                                            Quadrant q, Axis axis,
                                                            std::span<const LineAssignment> local);

/// All four quadrants' local assignments on `axis` (indexed like
/// kAllQuadrants) lowered and merged, as apply() realizes them with
/// merge_quadrants (paper Sec. IV-C): one assignment per global line that
/// any quadrant moves, ascending by line, holding both half-lines of the
/// line, lower positions first.
[[nodiscard]] std::vector<LineAssignment> merge_assignments(
    const QuadrantGeometry& geometry, Axis axis,
    const std::array<std::vector<LineAssignment>, 4>& local);

/// Drives the pass sequence for one rearrangement problem.
///
/// Usage: repeatedly call next(); for each returned pass, optionally inspect
/// it (the cycle model simulates its dataflow), then call apply() to lower
/// it to moves and advance the grid. next() returns nullopt when the
/// schedule analysis is complete; take_result() then hands out the plan.
class PassDriver {
 public:
  /// Preconditions: same as QrmPlanner::plan (even dims, centred target).
  PassDriver(const OccupancyGrid& initial, QrmConfig config);

  /// Compute the next pass from the current state, or nullopt when done.
  [[nodiscard]] std::optional<QuadrantPass> next();

  /// Realize `pass` (merged or per-quadrant, per config), appending moves to
  /// the internal schedule and advancing the grid. Must be called exactly
  /// once, with the pass most recently returned by next().
  void apply(const QuadrantPass& pass);

  [[nodiscard]] const OccupancyGrid& state() const noexcept { return state_; }
  [[nodiscard]] const QuadrantGeometry& geometry() const noexcept { return geometry_; }
  [[nodiscard]] const QrmConfig& config() const noexcept { return config_; }

  /// Final outcome, handed out by move: call once, after next() has
  /// returned nullopt. The driver is finished afterwards — next() returns
  /// nullopt, state() is empty — and a second call throws
  /// PreconditionError.
  [[nodiscard]] PlanResult take_result();

 private:
  /// Where we are in the mode's pass program.
  enum class Phase { BalanceRow, BalanceCol, CompactRow, CompactCol, Done };

  QrmConfig config_;
  QuadrantGeometry geometry_;
  OccupancyGrid state_;
  Schedule schedule_;
  PlanStats stats_;
  Phase phase_ = Phase::CompactRow;
  std::int32_t iteration_ = 0;
  std::size_t iteration_atoms_moved_ = 0;
  bool awaiting_apply_ = false;
  bool taken_ = false;  ///< take_result() has moved the plan out
};

}  // namespace qrm
