#include "detection/calibration.hpp"

#include <cmath>
#include <numbers>

namespace qrm {

double CalibrationDrift::factor(std::uint64_t shot_index) const noexcept {
  if (shape == DriftShape::None || amplitude == 0.0 || period == 0) return 1.0;
  const double phase =
      static_cast<double>(shot_index % period) / static_cast<double>(period);
  if (shape == DriftShape::Ramp) return 1.0 + amplitude * phase;
  return 1.0 + amplitude * std::sin(2.0 * std::numbers::pi * phase);
}

}  // namespace qrm
