#include "lattice/quadrant.hpp"

#include "util/assert.hpp"

namespace qrm {

QuadrantGeometry::QuadrantGeometry(std::int32_t height, std::int32_t width)
    : height_(height), width_(width) {
  QRM_EXPECTS_MSG(height > 0 && width > 0, "quadrant geometry needs a non-empty grid");
  QRM_EXPECTS_MSG(height % 2 == 0 && width % 2 == 0,
                  "QRM quadrant split requires even height and width");
}

Region QuadrantGeometry::global_region(Quadrant q) const noexcept {
  const std::int32_t qh = local_height();
  const std::int32_t qw = local_width();
  switch (q) {
    case Quadrant::NW: return {0, 0, qh, qw};
    case Quadrant::NE: return {0, qw, qh, qw};
    case Quadrant::SW: return {qh, 0, qh, qw};
    case Quadrant::SE: return {qh, qw, qh, qw};
  }
  return {};
}

Flip QuadrantGeometry::flip_of(Quadrant q) noexcept {
  switch (q) {
    case Quadrant::NW: return Flip::Rotate180;
    case Quadrant::NE: return Flip::Vertical;
    case Quadrant::SW: return Flip::Horizontal;
    case Quadrant::SE: return Flip::None;
  }
  return Flip::None;
}

Quadrant QuadrantGeometry::quadrant_of(Coord global) const {
  QRM_EXPECTS(global.row >= 0 && global.row < height_ && global.col >= 0 && global.col < width_);
  const bool south = global.row >= local_height();
  const bool east = global.col >= local_width();
  if (!south && !east) return Quadrant::NW;
  if (!south && east) return Quadrant::NE;
  if (south && !east) return Quadrant::SW;
  return Quadrant::SE;
}

Coord QuadrantGeometry::to_local(Quadrant q, Coord global) const {
  QRM_EXPECTS_MSG(global_region(q).contains(global), "coordinate not in requested quadrant");
  // Each map is its own inverse up to the origin: local = step * (global - origin).
  const AxisMap rows = row_map(q);
  const AxisMap cols = col_map(q);
  return {rows.step * (global.row - rows.origin), cols.step * (global.col - cols.origin)};
}

Coord QuadrantGeometry::to_global(Quadrant q, Coord local) const {
  QRM_EXPECTS(local.row >= 0 && local.row < local_height() && local.col >= 0 &&
              local.col < local_width());
  return {row_map(q)(local.row), col_map(q)(local.col)};
}

AxisMap QuadrantGeometry::row_map(Quadrant q) const noexcept {
  // Local index 0 is the line next to the array centre; the north and west
  // quadrants count from there toward global index 0.
  const bool north = q == Quadrant::NW || q == Quadrant::NE;
  return north ? AxisMap{local_height() - 1, -1} : AxisMap{local_height(), 1};
}

AxisMap QuadrantGeometry::col_map(Quadrant q) const noexcept {
  const bool west = q == Quadrant::NW || q == Quadrant::SW;
  return west ? AxisMap{local_width() - 1, -1} : AxisMap{local_width(), 1};
}

OccupancyGrid QuadrantGeometry::extract_local(const OccupancyGrid& grid, Quadrant q) const {
  QRM_EXPECTS(grid.height() == height_ && grid.width() == width_);
  return grid.subgrid(global_region(q), flip_of(q));
}

void QuadrantGeometry::write_back(OccupancyGrid& grid, Quadrant q,
                                  const OccupancyGrid& local) const {
  QRM_EXPECTS(grid.height() == height_ && grid.width() == width_);
  QRM_EXPECTS(local.height() == local_height() && local.width() == local_width());
  // flip_of(q) is self-inverse for every quadrant (None/H/V/Rot180).
  grid.set_subgrid(global_region(q), local.flipped(flip_of(q)));
}

}  // namespace qrm
