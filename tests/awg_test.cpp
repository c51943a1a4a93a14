// Tests for the AOD calibration's clock.

#include <gtest/gtest.h>

#include <vector>

#include "awg/waveform.hpp"

namespace qrm::awg {
namespace {

TEST(Awg, DurationsMatchPhysicalModel) {
  const std::vector<Coord> first{{2, 3}, {4, 3}};
  const std::vector<Coord> second{{1, 1}};
  Schedule s;
  s.push_back({Direction::East, 1, first});
  s.push_back({Direction::South, 2, second});

  // Distinct from PhysicalModel's defaults, so a dropped or swapped field shows.
  AodCalibration cal;
  cal.settle_time_us = 7.0;
  cal.ramp_time_per_step_us = 3.0;
  const PhysicalModel model = physical_model_of(cal);
  EXPECT_DOUBLE_EQ(model.move_duration_us(s[0]), 7.0 + 3.0);
  EXPECT_DOUBLE_EQ(model.move_duration_us(s[1]), 7.0 + 2.0 * 3.0);
  EXPECT_DOUBLE_EQ(model.schedule_duration_us(s), 23.0);
  EXPECT_DOUBLE_EQ(model.schedule_duration_us(Schedule{}), 0.0);
}

}  // namespace
}  // namespace qrm::awg
