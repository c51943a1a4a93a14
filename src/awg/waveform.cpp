#include "awg/waveform.hpp"

namespace qrm::awg {

PhysicalModel physical_model_of(const AodCalibration& calibration) {
  PhysicalModel model;
  model.move_overhead_us = calibration.settle_time_us;
  model.per_step_us = calibration.ramp_time_per_step_us;
  return model;
}

}  // namespace qrm::awg
