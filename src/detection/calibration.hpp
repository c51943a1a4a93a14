#pragma once
/// \file calibration.hpp
/// Imaging calibration drift: the slow, deterministic miscalibration of the
/// detection chain between recalibrations, applied per shot by the batch
/// planner and the scenario `drift` keys.

#include <cstdint>

namespace qrm {

/// Shape of the deterministic per-shot calibration drift.
enum class DriftShape : std::uint8_t {
  None,  ///< no drift; factor() is exactly 1.0
  Ramp,  ///< sawtooth: climbs linearly over one period, then resets
  Sine,  ///< sinusoid over one period
};

[[nodiscard]] constexpr const char* to_cstring(DriftShape s) noexcept {
  switch (s) {
    case DriftShape::Ramp: return "ramp";
    case DriftShape::Sine: return "sine";
    default: return "none";
  }
}

/// Deterministic per-shot calibration drift — the slow miscalibration a
/// real imaging system accumulates between recalibrations, modelled as a
/// multiplicative factor keyed ONLY by the shot index. No RNG stream is
/// consumed, so batch shots stay independent and reproducible regardless of
/// worker count, and shape None leaves every config bit-for-bit untouched.
struct CalibrationDrift {
  DriftShape shape = DriftShape::None;
  double amplitude = 0.2;    ///< peak relative deviation (0.2 = +-20%)
  std::uint32_t period = 8;  ///< shots per drift cycle

  /// Multiplier for shot `shot_index`: 1.0 for None, otherwise
  /// 1 + amplitude * ramp/sine of the phase (shot_index mod period).
  [[nodiscard]] double factor(std::uint64_t shot_index) const noexcept;

  friend bool operator==(const CalibrationDrift&, const CalibrationDrift&) = default;
};

}  // namespace qrm
