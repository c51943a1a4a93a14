#include "core/planner.hpp"

#include <utility>

#include "core/pass_driver.hpp"
#include "moves/dead_channels.hpp"

namespace qrm {

PlanResult QrmPlanner::plan(const OccupancyGrid& initial) const {
  // Dead channels: plan against the masked view, so frozen atoms (which can
  // never be picked up) are invisible to every pass.
  const OccupancyGrid* input = &initial;
  OccupancyGrid masked;
  if (!config_.dead_channels.empty()) {
    masked = mask_dead_lines(initial, config_.dead_channels);
    input = &masked;
  }
  PassDriver driver(*input, config_);
  while (auto pass = driver.next()) driver.apply(std::move(*pass));
  return driver.take_result();
}

PlanResult plan_qrm(const OccupancyGrid& initial, std::int32_t target_size, PlanMode mode) {
  QrmConfig config;
  config.target = centered_region(initial.height(), initial.width(), target_size, target_size);
  config.mode = mode;
  return QrmPlanner(config).plan(initial);
}

}  // namespace qrm
