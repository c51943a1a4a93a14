#include "lattice/grid.hpp"

#include <algorithm>
#include <bit>
#include <sstream>

#include "util/assert.hpp"

namespace qrm {

namespace {

using Word = OccupancyGrid::Word;
constexpr std::uint32_t kWordBits = OccupancyGrid::kWordBits;

}  // namespace

OccupancyGrid::OccupancyGrid(std::int32_t height, std::int32_t width)
    : height_(height), width_(width) {
  QRM_EXPECTS(height >= 0 && width >= 0);
  stride_ = (static_cast<std::size_t>(width) + kWordBits - 1) / kWordBits;
  words_.assign(static_cast<std::size_t>(height) * stride_, 0);
}

OccupancyGrid OccupancyGrid::from_strings(const std::vector<std::string>& lines) {
  if (lines.empty()) return {};
  OccupancyGrid g(static_cast<std::int32_t>(lines.size()),
                  static_cast<std::int32_t>(lines.front().size()));
  for (std::size_t r = 0; r < lines.size(); ++r) {
    QRM_EXPECTS_MSG(lines[r].size() == lines.front().size(), "ragged grid literal");
    g.set_row(static_cast<std::int32_t>(r), BitRow::from_string(lines[r]));
  }
  return g;
}

std::int64_t OccupancyGrid::atom_count() const noexcept {
  std::int64_t n = 0;
  for (const Word w : words_) n += std::popcount(w);
  return n;
}

std::int64_t OccupancyGrid::atom_count(const Region& region) const {
  QRM_EXPECTS(region.within(height_, width_));
  std::int64_t n = 0;
  for (std::int32_t r = region.row0; r < region.row_end(); ++r) {
    n += row(r).count_range(static_cast<std::uint32_t>(region.col0),
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
  for (std::size_t i = 0; i < words_.size(); ++i) {
    const auto r = static_cast<std::int32_t>(i / stride_);
    const auto c0 = static_cast<std::int32_t>((i % stride_) * kWordBits);
    for (Word w = words_[i]; w != 0; w &= w - 1) out.push_back({r, c0 + std::countr_zero(w)});
  }
  return out;
}

void OccupancyGrid::set_row(std::int32_t r, RowView bits) {
  QRM_EXPECTS(r >= 0 && r < height_);
  QRM_EXPECTS_MSG(bits.width() == static_cast<std::uint32_t>(width_), "row width mismatch");
  std::ranges::copy(bits.words(), row_words(r).begin());
}

void OccupancyGrid::set_word(std::int32_t r, std::size_t wi, Word w) {
  QRM_EXPECTS(r >= 0 && r < height_ && wi < stride_);
  const std::uint32_t used = static_cast<std::uint32_t>(width_) % kWordBits;
  if (wi + 1 == stride_ && used != 0) w &= (Word{1} << used) - 1;
  row_words(r)[wi] = w;
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
  const std::size_t wi = static_cast<std::uint32_t>(c) / kWordBits;
  const std::uint32_t shift = static_cast<std::uint32_t>(c) % kWordBits;
  const auto h = static_cast<std::uint32_t>(height_);
  for (std::uint32_t r0 = 0; r0 < h; r0 += kWordBits) {
    const std::uint32_t rows = std::min(kWordBits, h - r0);
    Word acc = 0;
    for (std::uint32_t k = 0; k < rows; ++k)
      acc |= ((words_[(r0 + k) * stride_ + wi] >> shift) & Word{1}) << k;
    out.set_word(r0 / kWordBits, acc);
  }
}

void OccupancyGrid::set_column(std::int32_t c, RowView bits) {
  QRM_EXPECTS(c >= 0 && c < width_);
  QRM_EXPECTS_MSG(bits.width() == static_cast<std::uint32_t>(height_), "column height mismatch");
  const std::size_t wi = static_cast<std::uint32_t>(c) / kWordBits;
  const std::uint32_t shift = static_cast<std::uint32_t>(c) % kWordBits;
  const Word mask = Word{1} << shift;
  const auto h = static_cast<std::uint32_t>(height_);
  for (std::uint32_t r = 0; r < h; ++r) {
    const Word bit = (bits.words()[r / kWordBits] >> (r % kWordBits)) & Word{1};
    Word& word = words_[r * stride_ + wi];
    word = (word & ~mask) | (bit << shift);
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
    slice_into(out.row_words(r), static_cast<std::uint32_t>(region.cols), row(src),
               static_cast<std::uint32_t>(region.col0), mirror_cols);
  }
  return out;
}

void OccupancyGrid::set_subgrid(const Region& region, const OccupancyGrid& content) {
  QRM_EXPECTS(region.within(height_, width_));
  QRM_EXPECTS(content.height() == region.rows && content.width() == region.cols);
  for (std::int32_t r = 0; r < region.rows; ++r)
    paste_into(row_words(region.row0 + r), static_cast<std::uint32_t>(width_),
               static_cast<std::uint32_t>(region.col0), content.row(r));
}

std::vector<Coord> diff_positions(const OccupancyGrid& a, const OccupancyGrid& b) {
  QRM_EXPECTS_MSG(a.height() == b.height() && a.width() == b.width(),
                  "diff_positions requires same-shaped grids");
  std::vector<Coord> out;
  const std::span<const Word> wa = a.words();
  const std::span<const Word> wb = b.words();
  for (std::size_t i = 0; i < wa.size(); ++i) {
    const auto r = static_cast<std::int32_t>(i / a.stride());
    const auto c0 = static_cast<std::int32_t>((i % a.stride()) * kWordBits);
    for (Word x = wa[i] ^ wb[i]; x != 0; x &= x - 1) out.push_back({r, c0 + std::countr_zero(x)});
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
