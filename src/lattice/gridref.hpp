#pragma once
/// \file gridref.hpp
/// Naive per-cell reference implementations of the OccupancyGrid bulk
/// operations, mirroring src/util/bitref.hpp one layer up: the executable
/// specification that tests/bitops_test.cpp and bench/planner_throughput pin
/// the word-blit paths in grid.cpp against. Never call these from production
/// code.

#include <cstdint>

#include "lattice/grid.hpp"
#include "lattice/region.hpp"

namespace qrm::ref {

[[nodiscard]] inline BitRow column(const OccupancyGrid& g, std::int32_t c) {
  BitRow out(static_cast<std::uint32_t>(g.height()));
  for (std::int32_t r = 0; r < g.height(); ++r)
    if (g.occupied({r, c})) out.set(static_cast<std::uint32_t>(r));
  return out;
}

[[nodiscard]] inline OccupancyGrid with_column(OccupancyGrid g, std::int32_t c,
                                               const BitRow& bits) {
  for (std::int32_t r = 0; r < g.height(); ++r)
    g.set({r, c}, bits.test(static_cast<std::uint32_t>(r)));
  return g;
}

[[nodiscard]] inline OccupancyGrid flipped(const OccupancyGrid& g, Flip flip) {
  OccupancyGrid out(g.height(), g.width());
  for (std::int32_t r = 0; r < g.height(); ++r)
    for (std::int32_t c = 0; c < g.width(); ++c)
      if (g.occupied({r, c})) out.set(g.map_coord(flip, {r, c}));
  return out;
}

[[nodiscard]] inline OccupancyGrid subgrid(const OccupancyGrid& g, const Region& region) {
  OccupancyGrid out(region.rows, region.cols);
  for (std::int32_t r = 0; r < region.rows; ++r)
    for (std::int32_t c = 0; c < region.cols; ++c)
      if (g.occupied({region.row0 + r, region.col0 + c})) out.set({r, c});
  return out;
}

[[nodiscard]] inline OccupancyGrid with_subgrid(OccupancyGrid g, const Region& region,
                                                const OccupancyGrid& content) {
  for (std::int32_t r = 0; r < region.rows; ++r)
    for (std::int32_t c = 0; c < region.cols; ++c)
      g.set({region.row0 + r, region.col0 + c}, content.occupied({r, c}));
  return g;
}

}  // namespace qrm::ref
