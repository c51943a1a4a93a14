#pragma once
/// \file control_system.hpp
/// End-to-end control-system model: the full Fig. 1 workflow (camera image
/// -> atom detection -> rearrangement analysis -> AWG program), under the
/// two architectures of Fig. 2:
///
///  (a) HostMediated — the camera frame crosses to a host PC, detection and
///      scheduling run on the CPU, and the move list crosses back to the
///      AWG FPGA. Every hop pays link latency and bandwidth.
///  (b) FpgaIntegrated — detection and the QRM accelerator live on the same
///      FPGA as the camera link and the AWG; only on-chip handoffs remain.
///
/// Link and detection-throughput constants are synthetic but representative
/// (CoaXPress-class camera link, PCIe-class host link); the point of the
/// model — and of the paper's Fig. 2 argument — is the *structure* of the
/// cost: architecture (b) removes both host hops entirely.

#include <cstdint>
#include <string>

#include "awg/waveform.hpp"
#include "detection/detector.hpp"
#include "detection/image.hpp"
#include "hwmodel/accelerator.hpp"
#include "lattice/grid.hpp"

namespace qrm::rt {

enum class Architecture : std::uint8_t {
  HostMediated,   ///< Fig. 2(a): detection + scheduling on the host CPU
  FpgaIntegrated  ///< Fig. 2(b): everything on the FPGA
};

[[nodiscard]] constexpr const char* to_cstring(Architecture a) noexcept {
  return a == Architecture::HostMediated ? "host-mediated (Fig. 2a)" : "FPGA-integrated (Fig. 2b)";
}

/// Interconnect timing for the host round trip of architecture (a).
struct LinkModel {
  double latency_us = 50.0;          ///< per transfer: DMA setup, driver, IRQ
  double bandwidth_bytes_per_us = 4000.0;  ///< ~4 GB/s PCIe-class effective

  [[nodiscard]] double transfer_us(double bytes) const noexcept {
    return latency_us + bytes / bandwidth_bytes_per_us;
  }
};

struct SystemConfig {
  Architecture architecture = Architecture::FpgaIntegrated;
  ImagingConfig imaging;
  DetectionConfig detection;
  hw::AcceleratorConfig accelerator;  ///< also supplies the QRM plan config
  awg::AodCalibration aod;
  LinkModel host_link;
  /// FPGA detection throughput, pixels per cycle at the accelerator clock
  /// (architecture (b) runs thresholding in streaming hardware).
  std::uint32_t detection_pixels_per_cycle = 16;
};

/// The modelled cost of one round's control path outside the analysis
/// (Fig. 2): getting the camera frame (pixels_per_site^2 16-bit pixels per
/// trap) to detection and the move list to the AWG. Host-mediated pays two
/// host-link hops, the frame out and one 4-byte record per command back; its
/// CPU detection is measured, not modelled. FPGA-integrated pays no hops and
/// streams the frame through threshold detection at
/// detection_pixels_per_cycle per accelerator clock.
struct ControlPathCost {
  double transfer_us = 0.0;   ///< host-link hops (host-mediated only)
  double detection_us = 0.0;  ///< streaming detection (FPGA-integrated only)
};

/// ControlPathCost of one round on a grid_height x grid_width trap array
/// whose schedule issues `commands` AOD commands. ControlSystem::run and the
/// campaign's architecture column both charge this.
[[nodiscard]] ControlPathCost control_path_cost(const SystemConfig& config,
                                                std::int32_t grid_height,
                                                std::int32_t grid_width, double commands);

/// Per-stage latency breakdown of one rearrangement round trip.
struct WorkflowReport {
  double detection_us = 0.0;   ///< image -> occupancy bitfield
  double transfer_us = 0.0;    ///< host-link hops (architecture (a) only)
  double analysis_us = 0.0;    ///< rearrangement schedule analysis
  double awg_program_us = 0.0; ///< physical execution time of the schedule
  bool target_filled = false;
  std::int64_t defects_remaining = 0;
  DetectionErrors detection_errors;
  std::size_t schedule_commands = 0;

  /// Control-path latency (everything before atoms start moving): the
  /// quantity the paper's architecture argument is about.
  [[nodiscard]] double control_latency_us() const noexcept {
    return detection_us + transfer_us + analysis_us;
  }
  [[nodiscard]] std::string to_string() const;
};

/// Runs the full workflow against ground-truth atom positions.
class ControlSystem {
 public:
  explicit ControlSystem(SystemConfig config);

  [[nodiscard]] const SystemConfig& config() const noexcept { return config_; }

  /// Image the true atom distribution, detect, plan, and time the schedule
  /// on the AOD clock; reports per-stage latencies for the configured
  /// architecture.
  [[nodiscard]] WorkflowReport run(const OccupancyGrid& true_atoms) const;

 private:
  SystemConfig config_;
};

}  // namespace qrm::rt
