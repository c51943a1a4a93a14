#pragma once
/// \file dead_channels.hpp
/// Dead AOD row/column channels: hardware lines whose pickup/drop-off
/// tweezers are out of service.
///
/// Semantics (shared by the planner, the realizer, and the lossy loop):
///   - an atom sitting on a dead row or column is *frozen* — it can be
///     neither picked up nor dropped off, so it never moves and never
///     contributes to the target;
///   - the planner sees a masked grid (dead lines cleared), so frozen
///     atoms are invisible to planning and can never be scheduled;
///   - transit *across* a dead line is allowed — the shift command simply
///     hops over it with a multi-step move (see moves/realizer.cpp), so a
///     dead channel splits no line into unreachable halves.
///
/// The mask lives in QrmConfig so the planner and the plan cache key on the
/// same failure map.

#include <cstdint>
#include <vector>

#include "lattice/coord.hpp"
#include "lattice/grid.hpp"

namespace qrm {

/// Set of dead AOD channels, in any order. A mask holds a few lines, so
/// lookups scan the lists.
struct DeadChannelMask {
  std::vector<std::int32_t> rows;  ///< dead row channels
  std::vector<std::int32_t> cols;  ///< dead column channels

  [[nodiscard]] bool empty() const noexcept { return rows.empty() && cols.empty(); }
  [[nodiscard]] bool row_dead(std::int32_t row) const noexcept;
  [[nodiscard]] bool col_dead(std::int32_t col) const noexcept;
  [[nodiscard]] bool site_dead(Coord site) const noexcept {
    return row_dead(site.row) || col_dead(site.col);
  }

  friend bool operator==(const DeadChannelMask&, const DeadChannelMask&) = default;
};

/// Returns `grid` with every atom on a dead row or column cleared — the
/// planner's view of a hardware array with broken channels. Out-of-range
/// mask entries are ignored (they name channels beyond this grid).
[[nodiscard]] OccupancyGrid mask_dead_lines(const OccupancyGrid& grid,
                                            const DeadChannelMask& mask);

}  // namespace qrm
