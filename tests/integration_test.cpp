// Cross-module integration properties: image -> detection -> planner ->
// executor -> AWG across a parameter grid, and hardware/software agreement
// under the full workflow.

#include <gtest/gtest.h>

#include <tuple>

#include "util/assert.hpp"
#include "awg/waveform.hpp"
#include "baselines/algorithm.hpp"
#include "core/planner.hpp"
#include "detection/detector.hpp"
#include "detection/image.hpp"
#include "hwmodel/accelerator.hpp"
#include "loading/loader.hpp"
#include "moves/executor.hpp"
#include "resources/model.hpp"

namespace qrm {
namespace {

using Param = std::tuple<std::int32_t /*size*/, double /*fill*/, std::uint64_t /*seed*/>;

class FullPipelineSweep : public ::testing::TestWithParam<Param> {};

TEST_P(FullPipelineSweep, ImageToDefectFreeArray) {
  const auto [size, fill, seed] = GetParam();
  const OccupancyGrid truth = load_random(size, size, {fill, seed});

  // Image and detect (high SNR so the pipeline is exact).
  ImagingConfig imaging;
  imaging.photons_per_atom = 400.0;
  imaging.background_photons = 1.0;
  imaging.seed = seed;
  const FluorescenceImage image = render_image(truth, imaging);
  DetectionConfig det;
  det.pixels_per_site = imaging.pixels_per_site;
  const OccupancyGrid detected = detect_atoms(image, size, size, det);
  ASSERT_EQ(compare_detection(truth, detected).total(), 0);

  // Plan on the detected grid.
  const std::int32_t target_size = size * 3 / 5 / 2 * 2;
  const PlanResult plan = plan_qrm(detected, target_size);

  // Execute on the *true* atoms (identical by exact detection).
  OccupancyGrid physical = truth;
  const ExecutionReport exec = run_schedule(physical, plan.schedule, {.check_aod = true});
  ASSERT_TRUE(exec.ok) << exec.error;
  if (plan.stats.feasible) {
    EXPECT_TRUE(physical.region_full(centered_square(size, target_size)));
  }

  // The AOD clock covers the whole schedule: every command pays its settle.
  const awg::AodCalibration cal;
  const double aod_us = awg::physical_model_of(cal).schedule_duration_us(plan.schedule);
  EXPECT_GE(aod_us, cal.settle_time_us * static_cast<double>(plan.schedule.size()));
  if (!plan.schedule.empty()) {
    EXPECT_GT(aod_us, 0.0);
  }
}

INSTANTIATE_TEST_SUITE_P(Grid, FullPipelineSweep,
                         ::testing::Combine(::testing::Values<std::int32_t>(10, 16, 24),
                                            ::testing::Values(0.55, 0.7),
                                            ::testing::Values<std::uint64_t>(5, 6)));

TEST(Integration, DetectionErrorsChangeThePlanNotItsLegality) {
  const OccupancyGrid truth = load_random(24, 24, {0.55, 12});
  const OccupancyGrid noisy = inject_detection_errors(truth, 0.08, 0.02, 13);
  const PlanResult plan = plan_qrm(noisy, 14);
  // The schedule is legal with respect to what was detected...
  OccupancyGrid replay = noisy;
  EXPECT_TRUE(run_schedule(replay, plan.schedule, {.check_aod = true}).ok);
  // ...but executing it on reality can fail (missed atoms block paths,
  // phantom atoms never move). That mismatch is detected, not silent.
  OccupancyGrid physical = truth;
  const ExecutionReport exec = run_schedule(physical, plan.schedule, {.check_aod = true});
  // Either it happens to work or the executor reports the first conflict.
  if (!exec.ok) {
    EXPECT_FALSE(exec.error.empty());
  }
}

TEST(Integration, AcceleratorLatencyBeatsEveryCpuBaselineStructurally) {
  // Fig. 7(b) ordering at the structural level: command analysis on the
  // accelerator takes ~hundreds of cycles; CPU baselines take at least tens
  // of microseconds of real work on this machine.
  const OccupancyGrid initial = load_random(20, 20, {0.55, 77});
  const Region target = centered_square(20, 12);

  hw::AcceleratorConfig config;
  config.plan.target = target;
  const double fpga_us = hw::QrmAccelerator(config).run(initial).latency_us;
  EXPECT_LT(fpga_us, 5.0);

  for (const auto& name : baselines::algorithm_names()) {
    const auto algo = baselines::make_algorithm(name);
    const PlanResult result = algo->plan(initial, target);
    EXPECT_FALSE(result.schedule.empty()) << name;
  }
}

TEST(Integration, ResourceModelCoversBenchSizes) {
  for (const std::int32_t w : {10, 30, 50, 70, 90}) {
    const auto usage = res::estimate_accelerator(w);
    EXPECT_TRUE(res::fits(usage, res::zcu216(), 0.5));
  }
}

TEST(Integration, SeedsGiveIndependentWorkloadsButStableResults) {
  // Same seed -> identical plan; different seed -> different plan (almost
  // surely), both valid.
  const OccupancyGrid a1 = load_random(20, 20, {0.5, 100});
  const OccupancyGrid a2 = load_random(20, 20, {0.5, 100});
  const OccupancyGrid b = load_random(20, 20, {0.5, 101});
  const PlanResult plan_a1 = plan_qrm(a1, 12);
  const PlanResult plan_a2 = plan_qrm(a2, 12);
  const PlanResult plan_b = plan_qrm(b, 12);
  EXPECT_EQ(plan_a1.schedule, plan_a2.schedule);
  EXPECT_NE(a1, b);
  OccupancyGrid replay = b;
  EXPECT_TRUE(run_schedule(replay, plan_b.schedule, {.check_aod = true}).ok);
}

}  // namespace
}  // namespace qrm
