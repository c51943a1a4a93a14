#pragma once
/// \file quadrant.hpp
/// QRM quadrant geometry: the split / flip / restore coordinate algebra of
/// the paper's Fig. 4.
///
/// Each quadrant is given *local* coordinates in which (0,0) is the trap
/// adjacent to the array centre and indices grow outward. In this frame the
/// unified per-quadrant schedule always compresses toward the local origin,
/// which is what lets a single Shift Kernel design serve all four quadrants.

#include <array>
#include <cstdint>
#include <string>

#include "lattice/grid.hpp"
#include "lattice/region.hpp"

namespace qrm {

enum class Quadrant : std::uint8_t { NW = 0, NE = 1, SW = 2, SE = 3 };

inline constexpr std::array<Quadrant, 4> kAllQuadrants{Quadrant::NW, Quadrant::NE, Quadrant::SW,
                                                       Quadrant::SE};

[[nodiscard]] constexpr const char* to_cstring(Quadrant q) noexcept {
  switch (q) {
    case Quadrant::NW: return "NW";
    case Quadrant::NE: return "NE";
    case Quadrant::SW: return "SW";
    case Quadrant::SE: return "SE";
  }
  return "?";
}
[[nodiscard]] inline std::string to_string(Quadrant q) { return to_cstring(q); }

/// How a quadrant-local index maps to a global one along one axis:
/// global = origin + step * local, with step = +1 or -1.
struct AxisMap {
  std::int32_t origin = 0;
  std::int32_t step = 1;

  [[nodiscard]] constexpr std::int32_t operator()(std::int32_t local) const noexcept {
    return origin + step * local;
  }
};

/// Coordinate algebra between the global grid and the four quadrant-local
/// frames. Requires even height and width (the paper's arrays are even; an
/// odd size has no centre-symmetric quadrant split).
class QuadrantGeometry {
 public:
  /// Preconditions: height, width positive and even.
  QuadrantGeometry(std::int32_t height, std::int32_t width);

  [[nodiscard]] std::int32_t height() const noexcept { return height_; }
  [[nodiscard]] std::int32_t width() const noexcept { return width_; }
  /// Rows per quadrant (the paper's Q_w for square arrays).
  [[nodiscard]] std::int32_t local_height() const noexcept { return height_ / 2; }
  /// Columns per quadrant.
  [[nodiscard]] std::int32_t local_width() const noexcept { return width_ / 2; }

  /// The global rectangle covered by quadrant `q`.
  [[nodiscard]] Region global_region(Quadrant q) const noexcept;

  /// The mirror operation that maps the quadrant's sub-grid into local
  /// orientation (centre corner at local (0,0)): NW -> Rotate180,
  /// NE -> Vertical, SW -> Horizontal, SE -> None.
  [[nodiscard]] static Flip flip_of(Quadrant q) noexcept;

  /// Which quadrant a global coordinate belongs to. Precondition: in bounds.
  [[nodiscard]] Quadrant quadrant_of(Coord global) const;

  /// Global -> local within quadrant `q`. Precondition: the coordinate lies
  /// inside `global_region(q)`.
  [[nodiscard]] Coord to_local(Quadrant q, Coord global) const;
  /// Local -> global. Precondition: 0 <= local < (local_height, local_width).
  [[nodiscard]] Coord to_global(Quadrant q, Coord local) const;
  /// The unchecked affine maps behind to_global: local row -> global row and
  /// local column -> global column of quadrant `q`.
  [[nodiscard]] AxisMap row_map(Quadrant q) const noexcept;
  [[nodiscard]] AxisMap col_map(Quadrant q) const noexcept;

  /// Copy quadrant `q` out of `grid` into its local frame (flip applied).
  [[nodiscard]] OccupancyGrid extract_local(const OccupancyGrid& grid, Quadrant q) const;
  /// Write a local-frame quadrant image back into the global grid.
  void write_back(OccupancyGrid& grid, Quadrant q, const OccupancyGrid& local) const;

 private:
  std::int32_t height_;
  std::int32_t width_;
};

}  // namespace qrm
