#pragma once
/// \file grid.hpp
/// The trap-occupancy matrix: the binary image the detection stage produces
/// and the state that rearrangement algorithms transform.

#include <cstdint>
#include <string>
#include <vector>

#include "lattice/coord.hpp"
#include "lattice/region.hpp"
#include "util/assert.hpp"
#include "util/bitrow.hpp"

namespace qrm {

/// Axis-aligned mirrors (the LDM "flip" primitives of the paper's Fig. 4).
enum class Flip {
  None,
  Horizontal,  ///< mirror columns: col -> width-1-col
  Vertical,    ///< mirror rows:    row -> height-1-row
  Rotate180,   ///< Horizontal then Vertical
};

/// Height x width binary occupancy matrix stored as one BitRow per row.
///
/// Invariant: all rows have width() == width_. Bit (r,c) set means trap
/// (r,c) holds an atom.
class OccupancyGrid {
 public:
  OccupancyGrid() = default;
  /// All-empty grid. Both dimensions may be zero (empty grid).
  OccupancyGrid(std::int32_t height, std::int32_t width);

  /// Parse from lines of '0'/'1' or '.'/'#'; all lines must share a length.
  [[nodiscard]] static OccupancyGrid from_strings(const std::vector<std::string>& lines);

  [[nodiscard]] std::int32_t height() const noexcept { return height_; }
  [[nodiscard]] std::int32_t width() const noexcept { return width_; }
  [[nodiscard]] bool empty() const noexcept { return height_ == 0 || width_ == 0; }
  [[nodiscard]] bool in_bounds(Coord c) const noexcept {
    return c.row >= 0 && c.row < height_ && c.col >= 0 && c.col < width_;
  }

  /// Read occupancy; precondition: in_bounds(c). Inline: the innermost
  /// probe of the realizer/legalizer hot loops.
  [[nodiscard]] bool occupied(Coord c) const {
    QRM_EXPECTS(in_bounds(c));
    return rows_[static_cast<std::size_t>(c.row)].test(static_cast<std::uint32_t>(c.col));
  }
  /// Write occupancy; precondition: in_bounds(c).
  void set(Coord c, bool value = true) {
    QRM_EXPECTS(in_bounds(c));
    rows_[static_cast<std::size_t>(c.row)].set(static_cast<std::uint32_t>(c.col), value);
  }
  void clear(Coord c) { set(c, false); }

  /// Total atoms in the grid.
  [[nodiscard]] std::int64_t atom_count() const noexcept;
  /// Atoms inside a region. Precondition: region.within(height, width).
  [[nodiscard]] std::int64_t atom_count(const Region& region) const;
  /// True when every site of `region` is occupied (a defect-free target).
  [[nodiscard]] bool region_full(const Region& region) const;
  /// All occupied coordinates (row-major order).
  [[nodiscard]] std::vector<Coord> atom_positions() const;

  /// Access one row's bits. Precondition: 0 <= row < height().
  [[nodiscard]] const BitRow& row(std::int32_t r) const {
    QRM_EXPECTS(r >= 0 && r < height_);
    return rows_[static_cast<std::size_t>(r)];
  }
  /// Replace one row's bits; the new row must have width() == width().
  void set_row(std::int32_t r, BitRow bits);
  /// Extract one column as a BitRow of length height() (bit i = row i).
  [[nodiscard]] BitRow column(std::int32_t c) const;
  /// Extract one column into `out`, whose width must be height(); no
  /// allocation.
  void column(std::int32_t c, BitRow& out) const;
  /// Write one column from a BitRow of length height().
  void set_column(std::int32_t c, const BitRow& bits);

  /// The whole grid mirrored by `flip`: subgrid of the whole grid.
  [[nodiscard]] OccupancyGrid flipped(Flip flip) const;
  /// Extract a sub-grid, mirrored by `flip`: subgrid(region, f) ==
  /// subgrid(region).flipped(f), each row built once from the source row's
  /// words. Precondition: region.within(height, width).
  [[nodiscard]] OccupancyGrid subgrid(const Region& region, Flip flip = Flip::None) const;
  /// Overwrite the cells of `region` from `content` (same shape).
  void set_subgrid(const Region& region, const OccupancyGrid& content);

  /// Map a coordinate through a flip of this grid's dimensions, so that
  /// flipped(f).occupied(map_coord(f, c)) == occupied(c).
  [[nodiscard]] Coord map_coord(Flip flip, Coord c) const;

  friend bool operator==(const OccupancyGrid&, const OccupancyGrid&) = default;

  /// Multi-line '#'/'.' art (row 0 first) with a region outlined by marking
  /// its defects 'x' and drawing occupied target sites as 'O'.
  [[nodiscard]] std::string to_art(const Region& highlight) const;

 private:
  std::int32_t height_ = 0;
  std::int32_t width_ = 0;
  std::vector<BitRow> rows_;
};

/// Sites whose occupancy differs between two same-shaped grids, row-major.
/// Word-parallel (XOR + countr_zero per 64-bit word), so grids that differ in
/// a handful of sites cost one scan over the words, not the cells.
/// Precondition: a and b share height and width.
[[nodiscard]] std::vector<Coord> diff_positions(const OccupancyGrid& a, const OccupancyGrid& b);

}  // namespace qrm
