// Tests for the AWG/AOD waveform model.

#include <gtest/gtest.h>

#include <cmath>

#include "awg/waveform.hpp"
#include "util/assert.hpp"

namespace qrm::awg {
namespace {

Schedule example_schedule() {
  const std::vector<Coord> first{{2, 3}, {4, 3}};  // rows 2,4; col 3
  const std::vector<Coord> second{{1, 1}};
  Schedule s;
  s.push_back({Direction::East, 1, first});
  s.push_back({Direction::South, 2, second});
  return s;
}

TEST(Awg, SiteFrequencyMapIsAffine) {
  const AodCalibration cal;
  EXPECT_DOUBLE_EQ(cal.site_freq_mhz(0), 75.0);
  EXPECT_DOUBLE_EQ(cal.site_freq_mhz(10), 80.0);
  EXPECT_LT(cal.site_freq_mhz(3), cal.site_freq_mhz(4));
}

TEST(Awg, PlanHasOneCommandPerMove) {
  const AodCalibration cal;
  const WaveformPlan plan = build_waveform_plan(example_schedule(), cal);
  ASSERT_EQ(plan.commands.size(), 2u);
  // Move 0: two row tones (static), one column tone (chirping east).
  EXPECT_EQ(plan.commands[0].row_tones.size(), 2u);
  EXPECT_EQ(plan.commands[0].col_tones.size(), 1u);
  EXPECT_FALSE(plan.commands[0].row_tones[0].is_chirp());
  EXPECT_TRUE(plan.commands[0].col_tones[0].is_chirp());
  EXPECT_DOUBLE_EQ(plan.commands[0].col_tones[0].start_mhz, cal.site_freq_mhz(3));
  EXPECT_DOUBLE_EQ(plan.commands[0].col_tones[0].end_mhz, cal.site_freq_mhz(4));
  // Move 1: one row tone chirping south by two sites.
  EXPECT_TRUE(plan.commands[1].row_tones[0].is_chirp());
  EXPECT_DOUBLE_EQ(plan.commands[1].row_tones[0].end_mhz, cal.site_freq_mhz(3));
  EXPECT_EQ(plan.chirp_count(), 2u);
}

TEST(Awg, DurationsMatchPhysicalModel) {
  const AodCalibration cal;
  const Schedule s = example_schedule();
  const WaveformPlan plan = build_waveform_plan(s, cal);
  const PhysicalModel model = physical_model_of(cal);
  EXPECT_DOUBLE_EQ(plan.total_duration_us, model.schedule_duration_us(s));
  EXPECT_DOUBLE_EQ(plan.commands[0].duration_us, cal.settle_time_us + cal.ramp_time_per_step_us);
  EXPECT_DOUBLE_EQ(plan.commands[1].duration_us,
                   cal.settle_time_us + 2.0 * cal.ramp_time_per_step_us);
}

TEST(Awg, EmptyScheduleEmptyPlan) {
  const WaveformPlan plan = build_waveform_plan(Schedule{}, AodCalibration{});
  EXPECT_TRUE(plan.commands.empty());
  EXPECT_DOUBLE_EQ(plan.total_duration_us, 0.0);
  EXPECT_EQ(plan.chirp_count(), 0u);
}

TEST(Awg, SynthesizedSamplesHaveEnergyAndBoundedAmplitude) {
  const AodCalibration cal;
  const WaveformPlan plan = build_waveform_plan(example_schedule(), cal);
  const auto samples = synthesize_axis(plan.commands[0], AodAxis::Rows, cal);
  ASSERT_FALSE(samples.empty());
  double energy = 0.0;
  float peak = 0.0F;
  for (const float s : samples) {
    energy += static_cast<double>(s) * s;
    peak = std::max(peak, std::abs(s));
  }
  EXPECT_GT(energy, 0.0);
  // Two unit tones: amplitude bounded by tone count.
  EXPECT_LE(peak, 2.0F + 1e-3F);
  EXPECT_GT(peak, 0.5F);
}

TEST(Awg, SampleCountMatchesDurationAndCap) {
  const AodCalibration cal;  // 500 Msps
  const WaveformPlan plan = build_waveform_plan(example_schedule(), cal);
  const double expected = plan.commands[0].duration_us * cal.sample_rate_msps;
  const auto samples = synthesize_axis(plan.commands[0], AodAxis::Rows, cal);
  EXPECT_EQ(samples.size(), static_cast<std::size_t>(expected));
  const auto capped = synthesize_axis(plan.commands[0], AodAxis::Rows, cal, 100);
  EXPECT_EQ(capped.size(), 100u);
}

TEST(Awg, ChirpSweepsInstantaneousFrequency) {
  // A single chirping tone: verify the zero-crossing density increases when
  // ramping upward (instantaneous frequency rises).
  AodCalibration cal;
  cal.sample_rate_msps = 2000.0;
  WaveformCommand cmd;
  cmd.duration_us = 20.0;
  cmd.col_tones.push_back({AodAxis::Cols, 40.0, 80.0, 20.0});
  const auto samples = synthesize_axis(cmd, AodAxis::Cols, cal);
  ASSERT_GT(samples.size(), 1000u);
  const auto crossings = [&](std::size_t lo, std::size_t hi) {
    int n = 0;
    for (std::size_t i = lo + 1; i < hi; ++i)
      if ((samples[i - 1] < 0) != (samples[i] < 0)) ++n;
    return n;
  };
  const std::size_t half = samples.size() / 2;
  EXPECT_GT(crossings(half, samples.size()), crossings(0, half))
      << "second half of an up-chirp must oscillate faster";
}

}  // namespace
}  // namespace qrm::awg
