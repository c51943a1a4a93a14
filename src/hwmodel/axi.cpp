#include "hwmodel/axi.hpp"

#include "util/assert.hpp"

namespace qrm::hw {

std::vector<AxiPacket> pack_grid(const OccupancyGrid& grid, std::uint32_t packet_bits) {
  QRM_EXPECTS_MSG(packet_bits > 0 && packet_bits % 64 == 0,
                  "packet width must be a positive multiple of 64");
  const std::uint32_t words_per_packet = packet_bits / 64;
  const std::uint64_t total_bits =
      static_cast<std::uint64_t>(grid.height()) * static_cast<std::uint64_t>(grid.width());
  const std::uint64_t packet_count = (total_bits + packet_bits - 1) / packet_bits;

  std::vector<AxiPacket> packets(packet_count);
  for (auto& p : packets) p.words.assign(words_per_packet, 0);

  std::uint64_t bit_cursor = 0;
  for (std::int32_t r = 0; r < grid.height(); ++r) {
    const RowView row = grid.row(r);
    for (std::uint32_t c = 0; c < row.width(); ++c, ++bit_cursor) {
      if (!row.test(c)) continue;
      const std::uint64_t packet_index = bit_cursor / packet_bits;
      const std::uint64_t bit_in_packet = bit_cursor % packet_bits;
      packets[packet_index].words[bit_in_packet / 64] |= std::uint64_t{1} << (bit_in_packet % 64);
    }
  }
  return packets;
}

}  // namespace qrm::hw
