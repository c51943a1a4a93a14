#pragma once
/// \file model.hpp
/// Analytic FPGA resource model (substitutes the paper's Vivado reports).
///
/// Per-module estimators reflect the structural composition of the design:
/// each Shift Kernel's registers scale with the quadrant width Q_w; the LDM
/// scales with the array width and the AXI beat width; the Row Combination /
/// output logic ("about half of the resources", Sec. V-C) scales with the
/// array width; a fixed block covers AXI interconnect, DMA and PS control.
///
/// Calibration: coefficients are fitted to the paper's Fig. 8 anchor —
/// LUT 6.31% and FF 6.19% of an XCZU49DR at W = 90, with FF's slope
/// slightly steeper than LUT's and BRAM flat across W = 10..90. See
/// EXPERIMENTS.md for the paper-vs-model comparison.

#include <cstdint>
#include <string>
#include <vector>

namespace qrm::res {

/// FPGA device capacities (from the AMD/Xilinx data sheets).
struct DeviceSpec {
  std::string name;
  std::uint64_t luts = 0;
  std::uint64_t ffs = 0;
  std::uint32_t bram36 = 0;  ///< 36-kbit block RAM count
};

/// ZCU216 evaluation board device (Zynq UltraScale+ RFSoC XCZU49DR),
/// the paper's platform.
[[nodiscard]] DeviceSpec zcu216();

/// Absolute resource usage of one block (or the whole design).
struct Utilization {
  std::uint64_t luts = 0;
  std::uint64_t ffs = 0;
  std::uint32_t bram36 = 0;

  Utilization& operator+=(const Utilization& rhs) noexcept {
    luts += rhs.luts;
    ffs += rhs.ffs;
    bram36 += rhs.bram36;
    return *this;
  }
  [[nodiscard]] double lut_fraction(const DeviceSpec& d) const noexcept {
    return d.luts == 0 ? 0.0 : static_cast<double>(luts) / static_cast<double>(d.luts);
  }
  [[nodiscard]] double ff_fraction(const DeviceSpec& d) const noexcept {
    return d.ffs == 0 ? 0.0 : static_cast<double>(ffs) / static_cast<double>(d.ffs);
  }
  [[nodiscard]] double bram_fraction(const DeviceSpec& d) const noexcept {
    return d.bram36 == 0 ? 0.0 : static_cast<double>(bram36) / static_cast<double>(d.bram36);
  }
};

/// Structural parameters the estimate depends on.
struct ResourceModelConfig {
  std::uint32_t quadrant_pathways = 4;
  std::uint32_t packet_bits = 1024;
  std::uint32_t record_bits = 32;
};

/// Per-module estimators (quadrant width = W/2 for square arrays).
[[nodiscard]] Utilization estimate_shift_kernel(std::int32_t quadrant_width);
[[nodiscard]] Utilization estimate_ldm(std::int32_t array_width, std::uint32_t packet_bits);
[[nodiscard]] Utilization estimate_ocm(std::int32_t array_width, std::uint32_t record_bits);
[[nodiscard]] Utilization estimate_infrastructure(std::uint32_t packet_bits);

/// Named breakdown entry for reports.
struct ModuleUsage {
  std::string module;
  Utilization usage;
};

/// Whole-accelerator estimate for a W x W array.
[[nodiscard]] Utilization estimate_accelerator(std::int32_t array_width,
                                               const ResourceModelConfig& config = {});
/// Same, with the per-module breakdown.
[[nodiscard]] std::vector<ModuleUsage> estimate_breakdown(std::int32_t array_width,
                                                          const ResourceModelConfig& config = {});

/// True when the design fits the device with headroom `margin` (fraction of
/// each resource left free, e.g. 0.5 = at most half used).
[[nodiscard]] bool fits(const Utilization& usage, const DeviceSpec& device, double margin = 0.0);

}  // namespace qrm::res
