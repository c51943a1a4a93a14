#pragma once
/// \file config.hpp
/// Configuration and result types of the QRM planner.

#include <cstdint>
#include <vector>

#include "lattice/grid.hpp"
#include "lattice/region.hpp"
#include "moves/dead_channels.hpp"
#include "moves/realizer.hpp"
#include "moves/schedule.hpp"

namespace qrm {

/// Per-quadrant scheduling strategy.
enum class PlanMode : std::uint8_t {
  /// Paper-literal iterated row-wise/column-wise inward compaction — exactly
  /// what the described Shift Kernel computes. Fills the target only when
  /// the post-compaction Young-diagram occupancy covers it (small targets or
  /// high fill); see DESIGN.md for the analysis.
  Compact,
  /// Demand-balanced assignment (one row-scan balance pass) followed by
  /// column compaction. Guaranteed to fill whenever each quadrant holds
  /// enough reachable atoms. Default, and what the 30x30-from-50x50
  /// experiment requires.
  Balanced,
};

[[nodiscard]] constexpr const char* to_cstring(PlanMode m) noexcept {
  return m == PlanMode::Compact ? "compact" : "balanced";
}

/// How the rearrangement loop replans between rounds.
enum class ReplanMode : std::uint8_t {
  /// Plan every round from scratch (the default, and the reference
  /// behaviour delta mode is pinned against).
  Scratch,
  /// Incremental: diff the round's grid against the previous plan's input,
  /// reuse cached quadrant-kernel outputs for quadrants the diff never
  /// touches, and recompute only dirty ones. Bit-identical to Scratch by
  /// construction (see core/delta_planner.hpp), so the knob never enters
  /// plan fingerprints or cache keys.
  Delta,
};

[[nodiscard]] constexpr const char* to_cstring(ReplanMode m) noexcept {
  return m == ReplanMode::Scratch ? "scratch" : "delta";
}

struct QrmConfig {
  /// Global target region; must be even-sized and centred so each quadrant
  /// owns exactly one quarter of it.
  Region target;
  PlanMode mode = PlanMode::Balanced;
  /// Compact-mode iteration cap (one iteration = one H pass + one V pass).
  /// The paper reports four iterations for its 50x50 experiment.
  std::int32_t max_iterations = 4;
  /// Merge the four quadrants' shift commands into shared global rounds
  /// (paper Sec. IV-C: NW+SW west-side shifts and NE+SE east-side shifts
  /// execute as single commands). Disable to study the ablation.
  bool merge_quadrants = true;
  /// Split every round into AOD-legal sub-moves (cross-product rule).
  bool aod_legalize = true;
  /// The kernel's manual shift-enable gate: local positions >= sen_limit
  /// never shift ("prevent unnecessary shifts far from the center").
  /// Negative disables gating. Balanced mode needs the gate at or beyond
  /// the target quarter (sen_limit >= target.cols / 2): planning throws
  /// PreconditionError otherwise.
  std::int32_t sen_limit = -1;
  /// Dead AOD channels the plan must route around: planners mask these
  /// lines out of their input (frozen atoms are invisible), and the
  /// realizer hops shift commands across them (moves/dead_channels.hpp).
  /// A planner axis like every field above — it changes plan output, so it
  /// enters PlanCache::config_key. A non-empty mask requires aod_legalize:
  /// planning throws PreconditionError otherwise.
  DeadChannelMask dead_channels;
};

/// What one line-scan pass over the quadrants did (used by the cycle model
/// to account hardware time pass-by-pass).
struct PassInfo {
  Axis axis = Axis::Rows;
  std::size_t lines_with_motion = 0;  ///< line assignments emitted
  std::size_t unit_rounds = 0;        ///< single-step shift rounds executed
  std::size_t atoms_moved = 0;

  friend bool operator==(const PassInfo&, const PassInfo&) = default;
};

/// Wall-clock breakdown of one plan: pass_compute is the four quadrant
/// kernels next() runs, merge is the cross-quadrant assignment stitching,
/// realize is the schedule lowering that advances the grid. Measurement
/// only — never part of a plan's identity (see PlanStats::operator==).
struct PhaseTimers {
  double pass_compute_us = 0.0;
  double merge_us = 0.0;
  double realize_us = 0.0;
};

struct PlanStats {
  std::int32_t iterations = 0;  ///< compact iterations used (balanced: 1)
  bool target_filled = false;
  std::int64_t defects_remaining = 0;
  bool feasible = true;  ///< balanced mode: demand was satisfiable
  std::vector<PassInfo> passes;
  PhaseTimers timers;  ///< excluded from equality: timing is not outcome

  /// Outcome equality: every deterministic field, timers excluded — this is
  /// what "a cache hit is indistinguishable from a cold plan" and "delta
  /// plans are bit-identical to scratch" are measured with.
  friend bool operator==(const PlanStats& a, const PlanStats& b) noexcept {
    return a.iterations == b.iterations && a.target_filled == b.target_filled &&
           a.defects_remaining == b.defects_remaining && a.feasible == b.feasible &&
           a.passes == b.passes;
  }
};

struct PlanResult {
  Schedule schedule;
  OccupancyGrid final_grid;
  PlanStats stats;

  /// Bit-level equality over every field — what "a cache hit is
  /// indistinguishable from a cold plan" means (exec::PlanCache).
  friend bool operator==(const PlanResult&, const PlanResult&) = default;
};

}  // namespace qrm
