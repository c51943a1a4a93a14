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

  [[nodiscard]] std::size_t total_assignments() const noexcept {
    std::size_t n = 0;
    for (const auto& a : local_assignments) n += a.size();
    return n;
  }
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

/// Per-drive reuse accounting for delta replanning (core/delta_planner.hpp).
struct PassReuseStats {
  std::uint64_t kernels_reused = 0;    ///< quadrant kernels served from cache
  std::uint64_t kernels_computed = 0;  ///< quadrant kernels recomputed
};

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
  /// once, with the pass most recently returned by next(). Taken by value so
  /// capture (capture_passes) can keep the pass without a deep copy — pass
  /// std::move(*pass) when the pass is no longer needed.
  void apply(QuadrantPass pass);

  [[nodiscard]] const OccupancyGrid& state() const noexcept { return state_; }
  [[nodiscard]] const QuadrantGeometry& geometry() const noexcept { return geometry_; }
  [[nodiscard]] const QrmConfig& config() const noexcept { return config_; }

  /// Final outcome, handed out by move: call once, after next() has
  /// returned nullopt. The driver is finished afterwards — next() returns
  /// nullopt, state() is empty — and a second call throws
  /// PreconditionError.
  [[nodiscard]] PlanResult take_result();

  /// Snapshot every applied pass (kernel inputs and outputs, in application
  /// order) into `sink`, which must outlive the driver. DeltaReplanner uses
  /// this to record a plan's pass trajectory for reuse next round. nullptr
  /// (the default) disables capture.
  void capture_passes(std::vector<QuadrantPass>* sink) noexcept { capture_sink_ = sink; }

  /// Serve clean quadrants' kernel outputs from a previous drive's captured
  /// trajectory: when pass k of this drive matches pass k of `previous` in
  /// kind (axis + balance), every quadrant not flagged in `dirty` takes the
  /// cached local grid / assignments / balance report instead of extracting
  /// and recomputing. Sound only when the clean quadrants' global cells
  /// equal the previous drive's input — the quadrant kernels are pure
  /// functions of their local extract, and realization never moves atoms
  /// across quadrant boundaries, so an untouched quadrant replays the same
  /// trajectory (DeltaReplanner establishes the equality via grid diff).
  /// `paranoid` additionally extracts and compares every reused grid,
  /// throwing InvariantError on mismatch (test / debug mode; forfeits the
  /// speedup). `previous` must outlive the driver and is CONSUMED: reused
  /// entries are moved from (a deep copy here would cost as much as the
  /// recompute it avoids), so the caller must treat the vector as spent
  /// after the drive. `stats` (optional) accumulates reuse counters.
  void reuse_passes(std::vector<QuadrantPass>* previous, std::array<bool, 4> dirty,
                    bool paranoid = false, PassReuseStats* stats = nullptr) noexcept {
    reuse_source_ = previous;
    reuse_dirty_ = dirty;
    reuse_paranoid_ = paranoid;
    reuse_stats_ = stats;
  }

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

  // Delta-replanning hooks (capture_passes / reuse_passes).
  std::vector<QuadrantPass>* capture_sink_ = nullptr;
  std::vector<QuadrantPass>* reuse_source_ = nullptr;
  std::array<bool, 4> reuse_dirty_{};
  bool reuse_paranoid_ = false;
  PassReuseStats* reuse_stats_ = nullptr;
  std::size_t pass_index_ = 0;  ///< passes applied so far (reuse alignment)
};

}  // namespace qrm
