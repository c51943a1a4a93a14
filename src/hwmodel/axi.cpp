#include "hwmodel/axi.hpp"

#include "util/assert.hpp"

namespace qrm::hw {

std::vector<AxiPacket> pack_grid(const OccupancyGrid& grid, std::uint32_t packet_bits) {
  QRM_EXPECTS_MSG(packet_bits > 0 && packet_bits % 64 == 0,
                  "packet width must be a positive multiple of 64");
  const std::uint32_t words_per_packet = packet_bits / 64;
  const auto width = static_cast<std::uint64_t>(grid.width());
  const std::uint64_t total_bits = static_cast<std::uint64_t>(grid.height()) * width;
  const std::uint64_t packet_count = (total_bits + packet_bits - 1) / packet_bits;

  std::vector<AxiPacket> packets(packet_count);
  for (auto& p : packets) p.words.assign(words_per_packet, 0);
  const auto stream = [&](std::uint64_t i) -> std::uint64_t& {
    return packets[i / words_per_packet].words[i % words_per_packet];
  };

  // Row r's bits start at stream bit r * width: each grid word lands there
  // shifted, its high part spilling into the next stream word (a plain word
  // copy when the width is a multiple of 64). Bits past a row's width are
  // zero, so a spill only ever carries real sites.
  const std::span<const OccupancyGrid::Word> words = grid.words();
  for (std::size_t i = 0; i < words.size(); ++i) {
    const std::uint64_t bit =
        (i / grid.stride()) * width + (i % grid.stride()) * OccupancyGrid::kWordBits;
    const std::uint64_t shift = bit % 64;
    stream(bit / 64) |= words[i] << shift;
    const std::uint64_t spill = shift == 0 ? 0 : words[i] >> (64 - shift);
    if (spill != 0) stream(bit / 64 + 1) |= spill;
  }
  return packets;
}

}  // namespace qrm::hw
