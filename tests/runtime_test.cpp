// Tests for the control-system orchestration: full Fig. 1 workflow and the
// Fig. 2 architecture comparison.

#include <gtest/gtest.h>

#include "util/assert.hpp"
#include "core/planner.hpp"
#include "loading/loader.hpp"
#include "runtime/control_system.hpp"

namespace qrm::rt {
namespace {

SystemConfig default_config(std::int32_t size, std::int32_t target, Architecture arch) {
  SystemConfig config;
  config.architecture = arch;
  config.accelerator.plan.target = centered_square(size, target);
  config.imaging.photons_per_atom = 400.0;  // high SNR: detection is exact
  config.imaging.background_photons = 1.0;
  config.detection.pixels_per_site = config.imaging.pixels_per_site;
  return config;
}

TEST(ControlSystem, EndToEndFillsTargetFromImage) {
  const OccupancyGrid atoms = load_random(20, 20, {0.55, 15});
  const ControlSystem system(default_config(20, 12, Architecture::FpgaIntegrated));
  const WorkflowReport report = system.run(atoms);
  EXPECT_EQ(report.detection_errors.total(), 0);
  EXPECT_TRUE(report.target_filled) << "defects " << report.defects_remaining;
  EXPECT_GT(report.detection_us, 0.0);
  EXPECT_GT(report.analysis_us, 0.0);
  EXPECT_GT(report.awg_program_us, 0.0);
  EXPECT_GT(report.schedule_commands, 0u);
  EXPECT_FALSE(report.to_string().empty());
}

TEST(ControlSystem, IntegratedArchitectureCutsControlLatency) {
  // The Fig. 2 argument: removing the host round trip shrinks the control
  // path by orders of magnitude.
  const OccupancyGrid atoms = load_random(20, 20, {0.55, 16});
  const SystemConfig host_config = default_config(20, 12, Architecture::HostMediated);
  const SystemConfig fpga_config = default_config(20, 12, Architecture::FpgaIntegrated);
  const WorkflowReport host = ControlSystem(host_config).run(atoms);
  const WorkflowReport fpga = ControlSystem(fpga_config).run(atoms);
  EXPECT_GT(host.transfer_us, 50.0) << "host path must pay link latency";
  EXPECT_DOUBLE_EQ(fpga.transfer_us, 0.0) << "integrated path has no host hops";
  EXPECT_LT(fpga.control_latency_us(), host.control_latency_us());
  // Both reach the same physical outcome.
  EXPECT_EQ(host.target_filled, fpga.target_filled);

  // Detection is exact at this SNR, so both architectures plan `atoms`. Both
  // charge control_path_cost for that plan's commands and the AOD clock of
  // its schedule.
  ASSERT_EQ(host.detection_errors.total(), 0);
  ASSERT_EQ(fpga.detection_errors.total(), 0);
  const PlanResult plan = QrmPlanner(host_config.accelerator.plan).plan(atoms);
  ASSERT_EQ(host.schedule_commands, plan.schedule.size());
  ASSERT_EQ(fpga.schedule_commands, plan.schedule.size());
  const auto commands = static_cast<double>(plan.schedule.size());
  EXPECT_EQ(host.transfer_us, control_path_cost(host_config, 20, 20, commands).transfer_us);
  EXPECT_EQ(fpga.detection_us, control_path_cost(fpga_config, 20, 20, commands).detection_us);
  // Two hops: 20x20 traps of 5x5 16-bit pixels out, a 4-byte record per
  // command back.
  const double hop_bytes = 20.0 * 20.0 * 25.0 * 2.0 + commands * 4.0;
  EXPECT_DOUBLE_EQ(host.transfer_us, 2.0 * 50.0 + hop_bytes / 4000.0);
  const double aod_us = host_config.aod.schedule_duration_us(plan.schedule);
  EXPECT_EQ(host.awg_program_us, aod_us);
  EXPECT_EQ(fpga.awg_program_us, aod_us);
}

TEST(ControlSystem, PhysicalTimeDominatesAfterAcceleration) {
  // Once analysis runs in ~1 us, the AWG program (physical atom motion) is
  // the remaining bottleneck — the motivation for the paper's "lower clock
  // cycle" claim.
  const OccupancyGrid atoms = load_random(20, 20, {0.55, 17});
  const WorkflowReport report =
      ControlSystem(default_config(20, 12, Architecture::FpgaIntegrated)).run(atoms);
  EXPECT_GT(report.awg_program_us, report.analysis_us);
}

TEST(ControlSystem, NoisyDetectionStillPlansLegally) {
  // Low SNR: detection errors flow into planning; the schedule must still
  // be internally consistent (the planner works off the detected grid).
  const OccupancyGrid atoms = load_random(20, 20, {0.55, 18});
  SystemConfig config = default_config(20, 12, Architecture::FpgaIntegrated);
  config.imaging.photons_per_atom = 10.0;
  config.imaging.background_photons = 6.0;
  const WorkflowReport report = ControlSystem(config).run(atoms);
  EXPECT_GT(report.detection_errors.total(), 0);
  // The report is still well-formed; fill is not guaranteed.
  EXPECT_GE(report.defects_remaining, 0);
}

TEST(ControlSystem, LinkModelTransferTime) {
  const LinkModel link{50.0, 4000.0};
  EXPECT_DOUBLE_EQ(link.transfer_us(0.0), 50.0);
  EXPECT_DOUBLE_EQ(link.transfer_us(40000.0), 60.0);
}

TEST(ControlSystem, RejectsMismatchedGeometry) {
  SystemConfig config = default_config(20, 12, Architecture::FpgaIntegrated);
  config.detection.pixels_per_site = config.imaging.pixels_per_site + 1;
  EXPECT_THROW(ControlSystem{config}, PreconditionError);
}

}  // namespace
}  // namespace qrm::rt
