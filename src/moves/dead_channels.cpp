#include "moves/dead_channels.hpp"

#include <algorithm>

namespace qrm {

bool DeadChannelMask::row_dead(std::int32_t row) const noexcept {
  return std::ranges::find(rows, row) != rows.end();
}

bool DeadChannelMask::col_dead(std::int32_t col) const noexcept {
  return std::ranges::find(cols, col) != cols.end();
}

OccupancyGrid mask_dead_lines(const OccupancyGrid& grid, const DeadChannelMask& mask) {
  OccupancyGrid out(grid.height(), grid.width());
  // The live columns as one row of words: a live row keeps those bits, a
  // dead row none.
  BitRow live(static_cast<std::uint32_t>(grid.width()));
  live.fill();
  for (const std::int32_t col : mask.cols)
    if (col >= 0 && col < grid.width()) live.clear(static_cast<std::uint32_t>(col));
  for (std::int32_t row = 0; row < grid.height(); ++row) {
    if (mask.row_dead(row)) continue;
    for (std::size_t wi = 0; wi < grid.stride(); ++wi)
      out.set_word(row, wi, grid.row(row).words()[wi] & live.words()[wi]);
  }
  return out;
}

}  // namespace qrm
