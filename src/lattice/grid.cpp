#include "lattice/grid.hpp"

#include <algorithm>
#include <bit>
#include <sstream>

#include "util/assert.hpp"

namespace qrm {

namespace {

using Word = BitRow::Word;
constexpr std::uint32_t kWordBits = BitRow::kWordBits;

}  // namespace

OccupancyGrid::OccupancyGrid(std::int32_t height, std::int32_t width)
    : height_(height), width_(width) {
  QRM_EXPECTS(height >= 0 && width >= 0);
  rows_.assign(static_cast<std::size_t>(height), BitRow(static_cast<std::uint32_t>(width)));
}

OccupancyGrid OccupancyGrid::from_strings(const std::vector<std::string>& lines) {
  if (lines.empty()) return {};
  OccupancyGrid g(static_cast<std::int32_t>(lines.size()),
                  static_cast<std::int32_t>(lines.front().size()));
  for (std::size_t r = 0; r < lines.size(); ++r) {
    QRM_EXPECTS_MSG(lines[r].size() == lines.front().size(), "ragged grid literal");
    g.rows_[r] = BitRow::from_string(lines[r]);
  }
  return g;
}

std::int64_t OccupancyGrid::atom_count() const noexcept {
  std::int64_t n = 0;
  for (const auto& r : rows_) n += r.count();
  return n;
}

std::int64_t OccupancyGrid::atom_count(const Region& region) const {
  QRM_EXPECTS(region.within(height_, width_));
  std::int64_t n = 0;
  for (std::int32_t r = region.row0; r < region.row_end(); ++r) {
    n += rows_[static_cast<std::size_t>(r)].count_range(static_cast<std::uint32_t>(region.col0),
                                                        static_cast<std::uint32_t>(region.col_end()));
  }
  return n;
}

bool OccupancyGrid::region_full(const Region& region) const {
  return atom_count(region) == region.area();
}

std::vector<Coord> OccupancyGrid::atom_positions() const {
  std::vector<Coord> out;
  out.reserve(static_cast<std::size_t>(atom_count()));
  for (std::int32_t r = 0; r < height_; ++r) {
    rows_[static_cast<std::size_t>(r)].for_each_set(
        [&out, r](std::uint32_t c) { out.push_back({r, static_cast<std::int32_t>(c)}); });
  }
  return out;
}

void OccupancyGrid::set_row(std::int32_t r, BitRow bits) {
  QRM_EXPECTS(r >= 0 && r < height_);
  QRM_EXPECTS_MSG(bits.width() == static_cast<std::uint32_t>(width_), "row width mismatch");
  rows_[static_cast<std::size_t>(r)] = std::move(bits);
}

BitRow OccupancyGrid::column(std::int32_t c) const {
  BitRow out(static_cast<std::uint32_t>(height_));
  column(c, out);
  return out;
}

void OccupancyGrid::column(std::int32_t c, BitRow& out) const {
  QRM_EXPECTS(c >= 0 && c < width_);
  QRM_EXPECTS_MSG(out.width() == static_cast<std::uint32_t>(height_), "column height mismatch");
  // One word read per source row, accumulating 64 column bits per output
  // word — no per-bit bounds-checked accessors in the loop.
  const std::uint32_t wi = static_cast<std::uint32_t>(c) / kWordBits;
  const std::uint32_t shift = static_cast<std::uint32_t>(c) % kWordBits;
  const auto h = static_cast<std::uint32_t>(height_);
  for (std::uint32_t r0 = 0; r0 < h; r0 += kWordBits) {
    const std::uint32_t rows = std::min(kWordBits, h - r0);
    Word acc = 0;
    for (std::uint32_t k = 0; k < rows; ++k)
      acc |= ((rows_[r0 + k].words()[wi] >> shift) & Word{1}) << k;
    out.set_word(r0 / kWordBits, acc);
  }
}

void OccupancyGrid::set_column(std::int32_t c, const BitRow& bits) {
  QRM_EXPECTS(c >= 0 && c < width_);
  QRM_EXPECTS_MSG(bits.width() == static_cast<std::uint32_t>(height_), "column height mismatch");
  const std::uint32_t wi = static_cast<std::uint32_t>(c) / kWordBits;
  const std::uint32_t shift = static_cast<std::uint32_t>(c) % kWordBits;
  const Word mask = Word{1} << shift;
  const auto h = static_cast<std::uint32_t>(height_);
  for (std::uint32_t r = 0; r < h; ++r) {
    const Word bit = (bits.words()[r / kWordBits] >> (r % kWordBits)) & Word{1};
    BitRow& row = rows_[r];
    row.set_word(wi, (row.words()[wi] & ~mask) | (bit << shift));
  }
}

Coord OccupancyGrid::map_coord(Flip flip, Coord c) const {
  switch (flip) {
    case Flip::None: return c;
    case Flip::Horizontal: return {c.row, width_ - 1 - c.col};
    case Flip::Vertical: return {height_ - 1 - c.row, c.col};
    case Flip::Rotate180: return {height_ - 1 - c.row, width_ - 1 - c.col};
  }
  QRM_ENSURES_MSG(false, "unknown flip");
  return c;
}

OccupancyGrid OccupancyGrid::flipped(Flip flip) const {
  return subgrid({0, 0, height_, width_}, flip);
}

OccupancyGrid OccupancyGrid::subgrid(const Region& region, Flip flip) const {
  QRM_EXPECTS(region.within(height_, width_));
  const bool mirror_rows = flip == Flip::Vertical || flip == Flip::Rotate180;
  const bool mirror_cols = flip == Flip::Horizontal || flip == Flip::Rotate180;
  OccupancyGrid out(region.rows, region.cols);
  for (std::int32_t r = 0; r < region.rows; ++r) {
    const std::int32_t src = region.row0 + (mirror_rows ? region.rows - 1 - r : r);
    out.rows_[static_cast<std::size_t>(r)].assign_slice(
        rows_[static_cast<std::size_t>(src)], static_cast<std::uint32_t>(region.col0), mirror_cols);
  }
  return out;
}

void OccupancyGrid::set_subgrid(const Region& region, const OccupancyGrid& content) {
  QRM_EXPECTS(region.within(height_, width_));
  QRM_EXPECTS(content.height() == region.rows && content.width() == region.cols);
  for (std::int32_t r = 0; r < region.rows; ++r)
    rows_[static_cast<std::size_t>(region.row0 + r)].paste(static_cast<std::uint32_t>(region.col0),
                                                           content.rows_[static_cast<std::size_t>(r)]);
}

std::vector<Coord> diff_positions(const OccupancyGrid& a, const OccupancyGrid& b) {
  QRM_EXPECTS_MSG(a.height() == b.height() && a.width() == b.width(),
                  "diff_positions requires same-shaped grids");
  std::vector<Coord> out;
  for (std::int32_t r = 0; r < a.height(); ++r) {
    const auto& wa = a.row(r).words();
    const auto& wb = b.row(r).words();
    for (std::size_t wi = 0; wi < wa.size(); ++wi) {
      Word x = wa[wi] ^ wb[wi];
      while (x != 0) {
        const std::uint32_t bit = static_cast<std::uint32_t>(std::countr_zero(x));
        out.push_back({r, static_cast<std::int32_t>(wi * kWordBits + bit)});
        x &= x - 1;  // clear lowest set bit
      }
    }
  }
  return out;
}

std::string OccupancyGrid::to_art(const Region& highlight) const {
  QRM_EXPECTS(highlight.within(height_, width_));
  std::ostringstream os;
  for (std::int32_t r = 0; r < height_; ++r) {
    for (std::int32_t c = 0; c < width_; ++c) {
      const bool occ = occupied({r, c});
      if (highlight.contains({r, c})) {
        os << (occ ? 'O' : 'x');
      } else {
        os << (occ ? '#' : '.');
      }
    }
    os << '\n';
  }
  return os.str();
}

}  // namespace qrm
