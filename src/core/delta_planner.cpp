#include "core/delta_planner.hpp"

#include <utility>

#include "lattice/quadrant.hpp"
#include "moves/dead_channels.hpp"

namespace qrm {

PlanResult DeltaReplanner::plan(const OccupancyGrid& raw_current) {
  ++stats_.plans;

  // Dead channels: mask once at the entry, exactly as QrmPlanner::plan does,
  // so prev_input_ / diffs / drives all live in the masked world and delta
  // stays bit-identical to scratch under any mask.
  const OccupancyGrid* current_ptr = &raw_current;
  OccupancyGrid masked;
  if (!config_.dead_channels.empty()) {
    masked = mask_dead_lines(raw_current, config_.dead_channels);
    current_ptr = &masked;
  }
  const OccupancyGrid& current = *current_ptr;

  if (!has_previous_ || current.height() != prev_input_.height() ||
      current.width() != prev_input_.width()) {
    return scratch_plan(current);
  }

  const std::vector<Coord> dirty_sites = diff_positions(prev_input_, current);
  if (dirty_sites.empty()) {
    // Identical input: the previous plan is this plan.
    ++stats_.whole_plan_reuses;
    return prev_result_;
  }
  stats_.dirty_sites += dirty_sites.size();

  const std::size_t limit =
      options_.max_dirty_sites != 0
          ? options_.max_dirty_sites
          : static_cast<std::size_t>(current.height()) * static_cast<std::size_t>(current.width()) / 4;
  const QuadrantGeometry geometry(current.height(), current.width());
  const std::array<bool, 4> dirty = dirty_quadrant_mask(geometry, dirty_sites);
  const bool all_dirty = dirty[0] && dirty[1] && dirty[2] && dirty[3];
  if (dirty_sites.size() > limit || all_dirty) return scratch_plan(current);

  return delta_plan(current, dirty);
}

void DeltaReplanner::reset() noexcept {
  has_previous_ = false;
  prev_input_ = {};
  prev_passes_.clear();
  prev_result_ = {};
}

PlanResult DeltaReplanner::scratch_plan(const OccupancyGrid& current) {
  ++stats_.scratch_plans;
  std::vector<QuadrantPass> captured;
  PassDriver driver(current, config_);
  driver.capture_passes(&captured);
  while (auto pass = driver.next()) driver.apply(std::move(*pass));
  PlanResult result = driver.take_result();
  remember(current, std::move(captured), result);
  return result;
}

PlanResult DeltaReplanner::delta_plan(const OccupancyGrid& current,
                                      const std::array<bool, 4>& dirty) {
  ++stats_.delta_plans;
  std::vector<QuadrantPass> captured;
  PassReuseStats reuse;
  PassDriver driver(current, config_);
  driver.capture_passes(&captured);
  driver.reuse_passes(&prev_passes_, dirty, options_.paranoid, &reuse);
  // The drive consumes prev_passes_ (reused entries are moved from); that is
  // fine because remember() below replaces it wholesale with this drive's
  // freshly captured trajectory.
  while (auto pass = driver.next()) driver.apply(std::move(*pass));
  PlanResult result = driver.take_result();
  stats_.kernels_reused += reuse.kernels_reused;
  stats_.kernels_computed += reuse.kernels_computed;
  remember(current, std::move(captured), result);
  return result;
}

void DeltaReplanner::remember(const OccupancyGrid& input, std::vector<QuadrantPass> passes,
                              PlanResult result) {
  prev_input_ = input;
  prev_passes_ = std::move(passes);
  prev_result_ = std::move(result);
  has_previous_ = true;
}

}  // namespace qrm
