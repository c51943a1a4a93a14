#pragma once
/// \file axi.hpp
/// AXI transfer modelling: the occupancy bitfield is packed into wide data
/// beats ("we pack 1024-bit data into one packet to move the data from DDR
/// memory into our accelerator with minimal transmission overhead") and
/// streamed one beat per cycle after a fixed DDR read latency.

#include <cstdint>
#include <vector>

#include "lattice/grid.hpp"
#include "util/bitrow.hpp"

namespace qrm::hw {

/// One wide AXI data beat. Width is dynamic to support the packet-width
/// ablation; bit order is row-major grid order (row 0 bit 0 first).
struct AxiPacket {
  std::vector<std::uint64_t> words;  ///< packet_bits / 64 words
};

/// Serialize a grid into `packet_bits`-wide beats (last beat zero-padded).
/// Precondition: packet_bits is a positive multiple of 64.
[[nodiscard]] std::vector<AxiPacket> pack_grid(const OccupancyGrid& grid,
                                               std::uint32_t packet_bits);

/// DDR/AXI timing constants used by the accelerator model.
struct DdrTiming {
  std::uint32_t read_latency_cycles = 40;  ///< first-beat latency
  std::uint32_t beats_per_cycle = 1;       ///< streaming throughput
};

}  // namespace qrm::hw
