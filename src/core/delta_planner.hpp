#pragma once
/// \file delta_planner.hpp
/// Incremental (delta) replanning for the rearrangement loop.
///
/// Round k+1 of a lossy rearrangement loop replans a grid that differs from
/// round k's input in only the sites loss and transport touched. The QRM
/// decomposition makes that reusable structure explicit: each quadrant's
/// kernel outputs are pure functions of (that quadrant's cells, the pass-kind
/// sequence), and realization never moves an atom across a quadrant boundary,
/// so a quadrant whose cells are untouched since the previous plan replays
/// exactly the same per-pass trajectory. DeltaReplanner diffs the new grid
/// against the previous plan's *input* (word-parallel XOR), maps the dirty
/// sites onto quadrants, and re-drives the pass schedule serving clean
/// quadrants from the captured previous trajectory while recomputing dirty
/// ones. Merge and realization always re-run, so the produced PlanResult is
/// bit-identical to a from-scratch plan by construction — the contract the
/// differential suite and the golden corpus pin.
///
/// Fallbacks (all still bit-identical, just without reuse):
///  - no previous plan, or the grid shape changed: plan from scratch;
///  - the diff is empty: return the previous PlanResult verbatim;
///  - the diff exceeds Options::max_dirty_sites or dirties all four
///    quadrants: plan from scratch (re-capturing the trajectory).

#include <array>
#include <cstdint>
#include <utility>
#include <vector>

#include "core/config.hpp"
#include "core/pass_driver.hpp"
#include "lattice/grid.hpp"

namespace qrm {

/// Reuse accounting across a DeltaReplanner's lifetime (one loop run).
struct DeltaReplanStats {
  std::uint64_t plans = 0;              ///< total plan() calls
  std::uint64_t scratch_plans = 0;      ///< full replans (first call + fallbacks)
  std::uint64_t whole_plan_reuses = 0;  ///< empty diff: previous result returned
  std::uint64_t delta_plans = 0;        ///< partial-reuse drives
  std::uint64_t kernels_reused = 0;     ///< quadrant kernels served from cache
  std::uint64_t kernels_computed = 0;   ///< quadrant kernels recomputed in delta drives
  std::uint64_t dirty_sites = 0;        ///< cumulative diff size over non-empty diffs

  friend bool operator==(const DeltaReplanStats&, const DeltaReplanStats&) = default;
};

/// Stateful replanner: call plan() once per loop round. Not thread-safe —
/// each loop (each batch shot) owns its own instance; determinism across
/// shots comes from the loop's derived RNG streams, not from sharing.
class DeltaReplanner {
 public:
  struct Options {
    /// Diff sizes above this fall back to scratch (reuse would be a wash).
    /// 0 = auto: a quarter of the grid area.
    std::size_t max_dirty_sites = 0;
    /// Extract and compare every reused quadrant grid against the cache,
    /// throwing InvariantError on mismatch. Test/debug mode: it re-does the
    /// extraction work reuse exists to skip, but turns any violation of the
    /// quadrant-independence argument into a loud failure.
    bool paranoid = false;
  };

  explicit DeltaReplanner(QrmConfig config) : DeltaReplanner(std::move(config), Options{}) {}
  DeltaReplanner(QrmConfig config, Options options)
      : config_(std::move(config)), options_(options) {}

  [[nodiscard]] const QrmConfig& config() const noexcept { return config_; }
  [[nodiscard]] const DeltaReplanStats& stats() const noexcept { return stats_; }

  /// Plan for `current`, reusing the previous round's trajectory where the
  /// grid diff allows. Same preconditions as QrmPlanner::plan; the result is
  /// bit-identical to QrmPlanner(config).plan(current).
  [[nodiscard]] PlanResult plan(const OccupancyGrid& current);

  /// Drop the cached previous plan (the next plan() starts from scratch).
  /// Reuse counters are kept; they describe the replanner's lifetime.
  void reset() noexcept;

 private:
  [[nodiscard]] PlanResult scratch_plan(const OccupancyGrid& current);
  [[nodiscard]] PlanResult delta_plan(const OccupancyGrid& current,
                                      const std::array<bool, 4>& dirty);
  void remember(const OccupancyGrid& input, std::vector<QuadrantPass> passes, PlanResult result);

  QrmConfig config_;
  Options options_;
  DeltaReplanStats stats_;

  bool has_previous_ = false;
  OccupancyGrid prev_input_;               ///< grid the previous plan started from
  std::vector<QuadrantPass> prev_passes_;  ///< its captured pass trajectory
  PlanResult prev_result_;
};

}  // namespace qrm
