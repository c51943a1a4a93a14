#pragma once
/// \file accelerator.hpp
/// Top-level cycle model of the QRM accelerator (paper Sec. IV, Fig. 5).
///
/// Composes, per pass: four (or fewer — see the pathway ablation) Shift
/// Kernels fed from quadrant row queues, with the Output Concatenation
/// Module consuming all command buffers. The initial load phase streams AXI
/// packets from a DDR model through the Load Data Module. Semantics (the
/// schedule and the final grid) come from the same PassDriver the
/// behavioural planner uses, so the model can never diverge from the
/// algorithm; the simulation contributes bit-exact datapath checks and the
/// cycle counts that convert to microseconds at the configured clock.

#include <cstdint>
#include <string>
#include <vector>

#include "core/config.hpp"
#include "hwmodel/axi.hpp"
#include "lattice/grid.hpp"

namespace qrm::hw {

struct AcceleratorConfig {
  QrmConfig plan;                 ///< algorithm configuration (shared with CPU planner)
  double clock_mhz = 250.0;       ///< PL clock (paper: 250 MHz on the RFSoC)
  std::uint32_t packet_bits = 1024;  ///< AXI beat width (paper: 1024)
  DdrTiming ddr;                  ///< DDR read latency / throughput
  /// PS-side orchestration cost per invocation (AXI kickoff + completion
  /// interrupt), charged once.
  std::uint32_t control_overhead_cycles = 100;
  /// Number of parallel QPM pathways; 4 = the paper's design, 1/2 serialize
  /// quadrants over fewer kernels (ablation of the quadrant parallelism).
  std::uint32_t quadrant_pathways = 4;
  /// Movement records serialized into the output stream per cycle. One
  /// packet_bits-wide output beat carries packet_bits/record_bits records,
  /// so the default matches a 1024-bit stream of 32-bit records.
  std::uint32_t ocm_drain_width = 32;
  /// Bits per movement record in the output stream (origin, dir, steps).
  std::uint32_t record_bits = 32;
};

/// Cycles attributed to one dataflow stage.
struct StageCycles {
  std::string name;
  std::uint64_t cycles = 0;
};

struct CycleReport {
  std::uint64_t control = 0;  ///< PS orchestration
  std::uint64_t load = 0;     ///< DMA-in + LDM streaming (simulated)
  std::uint64_t balance = 0;  ///< balance-unit analysis (analytic, see docs)
  std::uint64_t dma_out = 0;  ///< movement records back to DDR
  std::vector<StageCycles> passes;  ///< simulated kernel+OCM cycles per pass

  [[nodiscard]] std::uint64_t pass_total() const noexcept {
    std::uint64_t n = 0;
    for (const auto& p : passes) n += p.cycles;
    return n;
  }
  [[nodiscard]] std::uint64_t total() const noexcept {
    return control + load + balance + pass_total() + dma_out;
  }
  /// Multi-line breakdown table.
  [[nodiscard]] std::string to_string() const;
};

struct AccelResult {
  PlanResult plan;      ///< identical to QrmPlanner output for the same config
  CycleReport cycles;
  double latency_us = 0.0;
  std::uint64_t movement_records = 0;
};

class QrmAccelerator {
 public:
  explicit QrmAccelerator(AcceleratorConfig config);

  [[nodiscard]] const AcceleratorConfig& config() const noexcept { return config_; }

  /// Run the full accelerator flow on `initial`. Preconditions: as
  /// QrmPlanner::plan, plus quadrant_pathways in {1,2,4}.
  [[nodiscard]] AccelResult run(const OccupancyGrid& initial) const;

 private:
  AcceleratorConfig config_;
};

}  // namespace qrm::hw
