#pragma once
/// \file planner.hpp
/// The QRM planner: the paper's quadrant-based rearrangement method as a
/// behavioural (CPU) implementation.
///
/// plan() performs the full Fig. 4 flow — split the array into quadrants,
/// flip each into the unified local frame, run the same pass schedule on all
/// four, merge the resulting shift commands across quadrants, and restore
/// coordinates — producing an executable, AOD-legal global schedule plus the
/// predicted final grid.

#include "core/config.hpp"
#include "lattice/grid.hpp"

namespace qrm {

class QrmPlanner {
 public:
  explicit QrmPlanner(QrmConfig config) : config_(std::move(config)) {}

  [[nodiscard]] const QrmConfig& config() const noexcept { return config_; }

  /// Compute the rearrangement schedule for `initial`.
  ///
  /// Preconditions: grid dimensions positive and even; config.target is an
  /// even-sized region centred in the grid (each quadrant owns exactly one
  /// quarter of it). Throws PreconditionError otherwise.
  [[nodiscard]] PlanResult plan(const OccupancyGrid& initial) const;

 private:
  QrmConfig config_;
};

/// Convenience: plan with a centred target_size x target_size region in
/// balanced mode (the paper's headline configuration).
[[nodiscard]] PlanResult plan_qrm(const OccupancyGrid& initial, std::int32_t target_size,
                                  PlanMode mode = PlanMode::Balanced);

}  // namespace qrm
