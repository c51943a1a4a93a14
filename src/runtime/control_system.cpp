#include "runtime/control_system.hpp"

#include <sstream>

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

ControlSystem::ControlSystem(SystemConfig config) : config_(std::move(config)) {
  QRM_EXPECTS(config_.detection_pixels_per_cycle > 0);
  QRM_EXPECTS_MSG(config_.detection.pixels_per_site == config_.imaging.pixels_per_site,
                  "detection geometry must match imaging geometry");
}

WorkflowReport ControlSystem::run(const OccupancyGrid& true_atoms) const {
  WorkflowReport report;

  // --- Imaging (common to both architectures; the camera is the camera) ---
  const FluorescenceImage image = render_image(true_atoms, config_.imaging);
  const double image_bytes = static_cast<double>(image.height()) *
                             static_cast<double>(image.width()) * 2.0;  // 16-bit pixels

  // --- Detection + analysis, per architecture ------------------------------
  OccupancyGrid detected(true_atoms.height(), true_atoms.width());
  if (config_.architecture == Architecture::HostMediated) {
    // (a) Frame crosses to the host...
    report.transfer_us += config_.host_link.transfer_us(image_bytes);
    // ...detection runs on the CPU (measured)...
    {
      Stopwatch sw;
      detected = detect_atoms(image, true_atoms.height(), true_atoms.width(),
                              config_.detection);
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
    const PlanResult plan = QrmPlanner(config_.accelerator.plan).plan(detected);
    report.target_filled = plan.stats.target_filled;
    report.defects_remaining = plan.stats.defects_remaining;
    report.schedule_commands = plan.schedule.size();
    // ...and the move list, one 4-byte record per moved atom, crosses back
    // to the AWG FPGA.
    const double record_bytes = static_cast<double>(plan.schedule.stats().atom_moves) * 4.0;
    report.transfer_us += config_.host_link.transfer_us(record_bytes);
    report.awg_program_us =
        awg::build_waveform_plan(plan.schedule, config_.aod).total_duration_us;
  } else {
    // (b) Streaming threshold detection in hardware: pixels flow through at
    // detection_pixels_per_cycle per accelerator clock.
    const double pixel_count =
        static_cast<double>(image.height()) * static_cast<double>(image.width());
    const double detection_cycles =
        pixel_count / static_cast<double>(config_.detection_pixels_per_cycle);
    report.detection_us = detection_cycles / config_.accelerator.clock_mhz;
    detected =
        detect_atoms(image, true_atoms.height(), true_atoms.width(), config_.detection);
    // On-chip handoff to the QRM accelerator; its cycle model includes the
    // DDR/AXI load and output phases.
    const hw::AccelResult accel = hw::QrmAccelerator(config_.accelerator).run(detected);
    report.analysis_us = accel.latency_us;
    report.target_filled = accel.plan.stats.target_filled;
    report.defects_remaining = accel.plan.stats.defects_remaining;
    report.schedule_commands = accel.plan.schedule.size();
    report.awg_program_us =
        awg::build_waveform_plan(accel.plan.schedule, config_.aod).total_duration_us;
  }

  report.detection_errors = compare_detection(true_atoms, detected);
  return report;
}

}  // namespace qrm::rt
