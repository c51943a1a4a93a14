#pragma once
/// \file waveform.hpp
/// The AWG / 2D-AOD operating point, as the clock it puts on a schedule.
///
/// The 2D-AOD maps an RF frequency to a lattice row or column; each command
/// switches its tweezers on, ramps the moving axis' tones by `steps` site
/// spacings to drag the grabbed atoms in lockstep, and settles. The paper
/// does not benchmark this layer; its only output here is that time, through
/// PhysicalModel. Constants are representative of published tweezer
/// systems, not a specific instrument.

#include "moves/physical.hpp"

namespace qrm::awg {

/// AOD/AWG operating point.
struct AodCalibration {
  double ramp_time_per_step_us = 10.0;  ///< frequency ramp time per site step
  double settle_time_us = 20.0;         ///< tweezer on/off + settle per command
};

/// The PhysicalModel of a calibration: settle + ramp time x steps per
/// command, summed in schedule order by PhysicalModel::schedule_duration_us.
[[nodiscard]] PhysicalModel physical_model_of(const AodCalibration& calibration);

}  // namespace qrm::awg
