#include "runtime/control_system.hpp"

#include <sstream>
#include <utility>

#include "core/cpu_reference.hpp"
#include "core/planner.hpp"
#include "util/assert.hpp"
#include "util/stopwatch.hpp"

namespace qrm::rt {

std::string WorkflowReport::to_string() const {
  std::ostringstream os;
  os << "detection   " << detection_us << " us\n";
  os << "transfers   " << transfer_us << " us\n";
  os << "analysis    " << analysis_us << " us\n";
  os << "control     " << control_latency_us() << " us\n";
  os << "awg program " << awg_program_us << " us (" << schedule_commands << " commands)\n";
  os << "filled      " << (target_filled ? "yes" : "no") << " (defects "
     << defects_remaining << ")\n";
  return os.str();
}

ControlPathCost control_path_cost(const SystemConfig& config, std::int32_t grid_height,
                                  std::int32_t grid_width, double commands) {
  const double pixels = static_cast<double>(grid_height) * grid_width *
                        config.imaging.pixels_per_site * config.imaging.pixels_per_site;
  ControlPathCost cost;
  if (config.architecture == Architecture::HostMediated) {
    cost.transfer_us = config.host_link.transfer_us(pixels * 2.0) +
                       config.host_link.transfer_us(commands * 4.0);
  } else {
    cost.detection_us = pixels / static_cast<double>(config.detection_pixels_per_cycle) /
                        config.accelerator.clock_mhz;
  }
  return cost;
}

ControlSystem::ControlSystem(SystemConfig config) : config_(std::move(config)) {
  QRM_EXPECTS(config_.detection_pixels_per_cycle > 0);
  QRM_EXPECTS_MSG(config_.detection.pixels_per_site == config_.imaging.pixels_per_site,
                  "detection geometry must match imaging geometry");
}

WorkflowReport ControlSystem::run(const OccupancyGrid& true_atoms) const {
  WorkflowReport report;
  const std::int32_t height = true_atoms.height();
  const std::int32_t width = true_atoms.width();

  // --- Imaging (common to both architectures; the camera is the camera) ---
  const FluorescenceImage image = render_image(true_atoms, config_.imaging);

  // --- Detection + analysis, per architecture ------------------------------
  OccupancyGrid detected(height, width);
  PlanResult plan;
  if (config_.architecture == Architecture::HostMediated) {
    // (a) The frame crosses to the host, where detection runs on the CPU
    // (measured)...
    {
      Stopwatch sw;
      detected = detect_atoms(image, height, width, config_.detection);
      report.detection_us = sw.elapsed_microseconds();
    }
    // ...scheduling runs on the CPU. The timed quantity is the same
    // analysis the accelerator performs (no physical-command
    // materialisation); the executable schedule for the AWG is produced
    // outside the timed region.
    {
      Stopwatch sw;
      const CpuReferenceResult analysis =
          run_cpu_reference(detected, config_.accelerator.plan);
      report.analysis_us = sw.elapsed_microseconds();
      QRM_ENSURES_MSG(analysis.final_grid.atom_count() == detected.atom_count(),
                      "analysis must conserve atoms");  // also keeps the timing observable
    }
    plan = QrmPlanner(config_.accelerator.plan).plan(detected);
  } else {
    // (b) Streaming threshold detection in hardware (modelled below), then
    // an on-chip handoff to the QRM accelerator, whose cycle model includes
    // the DDR/AXI load and output phases.
    detected = detect_atoms(image, height, width, config_.detection);
    hw::AccelResult accel = hw::QrmAccelerator(config_.accelerator).run(detected);
    report.analysis_us = accel.latency_us;
    plan = std::move(accel.plan);
  }

  const ControlPathCost cost = control_path_cost(config_, height, width,
                                                 static_cast<double>(plan.schedule.size()));
  report.transfer_us = cost.transfer_us;
  if (config_.architecture == Architecture::FpgaIntegrated) report.detection_us = cost.detection_us;
  report.target_filled = plan.stats.target_filled;
  report.defects_remaining = plan.stats.defects_remaining;
  report.schedule_commands = plan.schedule.size();
  report.awg_program_us = awg::physical_model_of(config_.aod).schedule_duration_us(plan.schedule);
  report.detection_errors = compare_detection(true_atoms, detected);
  return report;
}

}  // namespace qrm::rt
