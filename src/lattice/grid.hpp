#pragma once
/// \file grid.hpp
/// The trap-occupancy matrix: the binary image the detection stage produces
/// and the state that rearrangement algorithms transform.

#include <algorithm>
#include <cstdint>
#include <span>
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

/// Height x width binary occupancy matrix stored as one row-major word
/// array: row r is the stride() words from r * stride(), stride() =
/// ceil(width / 64), bit c of the row at word c / 64, position c % 64.
///
/// Invariant: bits past width() in each row's last word are zero, so word
/// operations (counts, equality, hashing) need no masks. Bit (r,c) set means
/// trap (r,c) holds an atom. Copying a grid is one allocation.
class OccupancyGrid {
 public:
  using Word = BitRow::Word;
  static constexpr std::uint32_t kWordBits = BitRow::kWordBits;

  OccupancyGrid() = default;
  /// All-empty grid. Both dimensions may be zero (empty grid).
  OccupancyGrid(std::int32_t height, std::int32_t width);

  /// Parse from lines of '0'/'1' or '.'/'#'; all lines must share a length.
  [[nodiscard]] static OccupancyGrid from_strings(const std::vector<std::string>& lines);
  /// The grid whose site (r, c) holds an atom when `bit(r, c)` is true.
  /// `bit` is called once per site in row-major order, and each word is
  /// built in a register and stored once.
  template <typename Bit>
  [[nodiscard]] static OccupancyGrid generate(std::int32_t height, std::int32_t width, Bit&& bit);

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
    return (words_[word_index(c)] >> (static_cast<std::uint32_t>(c.col) % kWordBits)) & 1U;
  }
  /// Write occupancy; precondition: in_bounds(c).
  void set(Coord c, bool value = true) {
    QRM_EXPECTS(in_bounds(c));
    const Word mask = Word{1} << (static_cast<std::uint32_t>(c.col) % kWordBits);
    Word& word = words_[word_index(c)];
    word = value ? word | mask : word & ~mask;
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

  /// Words per row: ceil(width() / 64).
  [[nodiscard]] std::size_t stride() const noexcept { return stride_; }
  /// The whole grid, height() * stride() words, row-major.
  [[nodiscard]] std::span<const Word> words() const noexcept { return words_; }
  /// One row's bits, viewed in place. Precondition: 0 <= row < height().
  [[nodiscard]] RowView row(std::int32_t r) const {
    QRM_EXPECTS(r >= 0 && r < height_);
    return {std::span<const Word>(words_).subspan(static_cast<std::size_t>(r) * stride_, stride_),
            static_cast<std::uint32_t>(width_)};
  }
  /// Replace one row's bits; the new row must have width() == width().
  void set_row(std::int32_t r, RowView bits);
  /// Overwrite word `wi` of row `r`; bits past width() are masked off.
  /// Preconditions: 0 <= r < height(), wi < stride().
  void set_word(std::int32_t r, std::size_t wi, Word w);
  /// Extract one column as a BitRow of length height() (bit i = row i).
  [[nodiscard]] BitRow column(std::int32_t c) const;
  /// Extract one column into `out`, whose width must be height(); no
  /// allocation.
  void column(std::int32_t c, BitRow& out) const;
  /// Write one column from a row of length height().
  void set_column(std::int32_t c, RowView bits);

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
  [[nodiscard]] std::size_t word_index(Coord c) const noexcept {
    return static_cast<std::size_t>(c.row) * stride_ +
           static_cast<std::uint32_t>(c.col) / kWordBits;
  }
  [[nodiscard]] std::span<Word> row_words(std::int32_t r) noexcept {
    return std::span<Word>(words_).subspan(static_cast<std::size_t>(r) * stride_, stride_);
  }

  std::int32_t height_ = 0;
  std::int32_t width_ = 0;
  std::size_t stride_ = 0;
  std::vector<Word> words_;
};

template <typename Bit>
OccupancyGrid OccupancyGrid::generate(std::int32_t height, std::int32_t width, Bit&& bit) {
  OccupancyGrid grid(height, width);
  auto word = grid.words_.begin();
  for (std::int32_t r = 0; r < height; ++r) {
    for (std::int32_t c0 = 0; c0 < width; c0 += static_cast<std::int32_t>(kWordBits)) {
      const std::int32_t bits = std::min(static_cast<std::int32_t>(kWordBits), width - c0);
      Word w = 0;
      for (std::int32_t k = 0; k < bits; ++k)
        w |= static_cast<Word>(static_cast<bool>(bit(r, c0 + k))) << k;
      *word++ = w;
    }
  }
  return grid;
}

}  // namespace qrm
