// Differential suite for the word-parallel BitRow / OccupancyGrid kernels.
//
// Every rewritten primitive is pinned bit-for-bit against the naive per-bit
// reference implementations in util/bitref.hpp and lattice/gridref.hpp over
// randomized contents at word-boundary-hostile widths (63/64/65/127/128/
// 1023/1024/...), plus randomized fuzz rounds with random widths. A failure
// prints the width and seed so the case can be replayed directly.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "util/assert.hpp"

#include "lattice/grid.hpp"
#include "lattice/gridref.hpp"
#include "moves/aod.hpp"
#include "util/bitref.hpp"
#include "util/bitrow.hpp"
#include "util/rng.hpp"

namespace qrm {
namespace {

/// Widths that straddle every interesting word boundary, plus degenerate
/// small rows.
const std::vector<std::uint32_t> kWidths = {0,  1,  2,   31,  32,  33,  63,   64,   65,
                                            97, 127, 128, 129, 191, 192, 1023, 1024, 1025};

[[nodiscard]] BitRow random_row(std::uint32_t width, double fill, Rng& rng) {
  BitRow row(width);
  for (std::uint32_t i = 0; i < width; ++i)
    if (rng.bernoulli(fill)) row.set(i);
  return row;
}

[[nodiscard]] OccupancyGrid random_grid(std::int32_t height, std::int32_t width, double fill,
                                        Rng& rng) {
  OccupancyGrid g(height, width);
  for (std::int32_t r = 0; r < height; ++r)
    for (std::int32_t c = 0; c < width; ++c)
      if (rng.bernoulli(fill)) g.set({r, c});
  return g;
}

/// Run `check(row)` for every boundary width x three fill levels x several
/// seeds. `check` receives the row plus a SCOPED_TRACE tag already naming
/// (width, fill, seed).
template <typename Check>
void for_each_random_row(Check&& check) {
  for (const std::uint32_t width : kWidths) {
    for (const double fill : {0.0, 0.5, 1.0}) {
      for (std::uint64_t seed = 1; seed <= 3; ++seed) {
        Rng rng(seed * 7919 + width);
        const BitRow row = random_row(width, fill, rng);
        SCOPED_TRACE("width=" + std::to_string(width) + " fill=" + std::to_string(fill) +
                     " seed=" + std::to_string(seed));
        check(row, rng);
      }
    }
  }
}

/// Bits [pos, pos+len) of `row` through the blit, reversed when `reverse`.
[[nodiscard]] BitRow blit(const BitRow& row, std::uint32_t pos, std::uint32_t len, bool reverse) {
  BitRow out(len);
  out.assign_slice(row, pos, reverse);
  return out;
}

/// `row` with `piece` pasted at bit `pos`, through paste_into (the blit
/// behind OccupancyGrid::set_subgrid).
[[nodiscard]] BitRow paste(const BitRow& row, std::uint32_t pos, const BitRow& piece) {
  std::vector<BitRow::Word> words(row.words().begin(), row.words().end());
  paste_into(words, row.width(), pos, piece);
  return BitRow(RowView(words, row.width()));
}

TEST(BitOpsDifferential, Reversed) {
  for_each_random_row([](const BitRow& row, Rng&) {
    EXPECT_EQ(blit(row, 0, row.width(), true), ref::reversed(row));
  });
}

TEST(BitOpsDifferential, CountRange) {
  for_each_random_row([](const BitRow& row, Rng& rng) {
    const std::uint32_t w = row.width();
    // Random sub-ranges plus the boundary-hugging ones.
    std::vector<std::pair<std::uint32_t, std::uint32_t>> ranges = {
        {0, 0}, {0, w}, {w, w}, {w / 2, w / 2}};
    for (int i = 0; i < 16; ++i) {
      std::uint32_t lo = rng.uniform_below(w + 1);
      std::uint32_t hi = rng.uniform_below(w + 1);
      if (lo > hi) std::swap(lo, hi);
      ranges.emplace_back(lo, hi);
    }
    for (const auto& [lo, hi] : ranges) {
      SCOPED_TRACE("lo=" + std::to_string(lo) + " hi=" + std::to_string(hi));
      EXPECT_EQ(row.count_range(lo, hi), ref::count_range(row, lo, hi));
    }
  });
}

TEST(BitOpsDifferential, SliceAndPaste) {
  for_each_random_row([](const BitRow& row, Rng& rng) {
    const std::uint32_t w = row.width();
    for (int i = 0; i < 8; ++i) {
      std::uint32_t pos = rng.uniform_below(w + 1);
      const std::uint32_t len = rng.uniform_below(w - pos + 1);
      SCOPED_TRACE("pos=" + std::to_string(pos) + " len=" + std::to_string(len));
      EXPECT_EQ(blit(row, pos, len, false), ref::slice(row, pos, len));
      EXPECT_EQ(blit(row, pos, len, true), ref::reversed(ref::slice(row, pos, len)));

      const BitRow piece = random_row(len, 0.5, rng);
      EXPECT_EQ(paste(row, pos, piece), ref::pasted(row, pos, piece));
    }
  });
}

TEST(BitOpsDifferential, SlicePasteRoundTrip) {
  // paste of a blitted slice must be the identity for any sub-range, also
  // when the slice is reversed and reversed back.
  Rng rng(42);
  const BitRow row = random_row(1023, 0.5, rng);
  for (const auto& [pos, len] :
       std::vector<std::pair<std::uint32_t, std::uint32_t>>{{0, 64}, {63, 65}, {64, 959}, {1, 1022}}) {
    EXPECT_EQ(paste(row, pos, blit(row, pos, len, false)), row);
    EXPECT_EQ(paste(row, pos, blit(blit(row, pos, len, true), 0, len, true)), row);
  }
}

TEST(BitOpsDifferential, SliceBoundsChecked) {
  const BitRow row(100);
  BitRow slice(51);
  EXPECT_THROW(slice.assign_slice(row, 50, false), PreconditionError);
  EXPECT_THROW(slice.assign_slice(row, 50, true), PreconditionError);
  std::vector<BitRow::Word> target(2);
  EXPECT_THROW(paste_into(target, 100, 50, BitRow(51)), PreconditionError);
}

/// Grid shapes straddling the 64-row/column block boundaries.
const std::vector<std::pair<std::int32_t, std::int32_t>> kShapes = {
    {1, 1}, {3, 130}, {63, 63}, {64, 64}, {65, 64}, {64, 65}, {65, 65}, {100, 200}, {128, 128}};

TEST(GridOpsDifferential, Mirrors) {
  for (const auto& [h, w] : kShapes) {
    Rng rng(h * 31 + w);
    const OccupancyGrid g = random_grid(h, w, 0.5, rng);
    SCOPED_TRACE("h=" + std::to_string(h) + " w=" + std::to_string(w));
    for (const Flip flip : {Flip::None, Flip::Horizontal, Flip::Vertical, Flip::Rotate180})
      EXPECT_EQ(g.flipped(flip), ref::flipped(g, flip)) << "flip " << static_cast<int>(flip);
  }
}

TEST(GridOpsDifferential, ColumnAndSetColumn) {
  for (const auto& [h, w] : kShapes) {
    Rng rng(h * 1000 + w);
    const OccupancyGrid g = random_grid(h, w, 0.5, rng);
    SCOPED_TRACE("h=" + std::to_string(h) + " w=" + std::to_string(w));
    for (const std::int32_t c : {0, w / 2, w - 1}) {
      EXPECT_EQ(g.column(c), ref::column(g, c));
      BitRow into(static_cast<std::uint32_t>(h));
      into.fill();
      g.column(c, into);
      EXPECT_EQ(into, ref::column(g, c)) << "column into a reused row";
      const BitRow bits = random_row(static_cast<std::uint32_t>(h), 0.5, rng);
      OccupancyGrid fast = g;
      fast.set_column(c, bits);
      EXPECT_EQ(fast, ref::with_column(g, c, bits));
      EXPECT_EQ(fast.column(c), bits) << "set_column/column round trip";
    }
  }
}

TEST(GridOpsDifferential, SubgridAndSetSubgrid) {
  for (const auto& [h, w] : kShapes) {
    Rng rng(h * 7 + w * 13);
    const OccupancyGrid g = random_grid(h, w, 0.5, rng);
    SCOPED_TRACE("h=" + std::to_string(h) + " w=" + std::to_string(w));
    for (int i = 0; i < 8; ++i) {
      Region region;
      region.row0 = static_cast<std::int32_t>(rng.uniform_below(static_cast<std::uint32_t>(h)));
      region.col0 = static_cast<std::int32_t>(rng.uniform_below(static_cast<std::uint32_t>(w)));
      region.rows =
          static_cast<std::int32_t>(rng.uniform_below(static_cast<std::uint32_t>(h - region.row0) + 1));
      region.cols =
          static_cast<std::int32_t>(rng.uniform_below(static_cast<std::uint32_t>(w - region.col0) + 1));
      SCOPED_TRACE("region=(" + std::to_string(region.row0) + "," + std::to_string(region.col0) +
                   ")+" + std::to_string(region.rows) + "x" + std::to_string(region.cols));
      const OccupancyGrid sub = g.subgrid(region);
      EXPECT_EQ(sub, ref::subgrid(g, region));
      for (const Flip flip : {Flip::Horizontal, Flip::Vertical, Flip::Rotate180}) {
        EXPECT_EQ(g.subgrid(region, flip), ref::flipped(sub, flip))
            << "mirrored subgrid, flip " << static_cast<int>(flip);
      }

      const OccupancyGrid content = random_grid(region.rows, region.cols, 0.5, rng);
      OccupancyGrid fast = g;
      fast.set_subgrid(region, content);
      EXPECT_EQ(fast, ref::with_subgrid(g, region, content));
      EXPECT_EQ(fast.subgrid(region), content) << "set_subgrid/subgrid round trip";
    }
  }
}

/// True when the grid is height() * stride() words and every row's bits
/// past width() are zero.
[[nodiscard]] bool tails_zero(const OccupancyGrid& g) {
  const std::size_t stride = (static_cast<std::size_t>(g.width()) + 63) / 64;
  if (g.stride() != stride || g.words().size() != static_cast<std::size_t>(g.height()) * stride)
    return false;
  const std::uint32_t used = static_cast<std::uint32_t>(g.width()) % 64;
  if (used == 0) return true;
  for (std::int32_t r = 0; r < g.height(); ++r)
    if ((g.row(r).words().back() >> used) != 0) return false;
  return true;
}

/// One row of `g` read a bit at a time.
[[nodiscard]] BitRow row_bits(const OccupancyGrid& g, std::int32_t r) {
  BitRow out(static_cast<std::uint32_t>(g.width()));
  for (std::int32_t c = 0; c < g.width(); ++c)
    if (g.occupied({r, c})) out.set(static_cast<std::uint32_t>(c));
  return out;
}

TEST(GridOpsDifferential, FlatRowsMatchTheReferenceAndKeepTailsZero) {
  // Every row of the one word array starts at r * stride(); each mutator
  // must keep the bits past width() zero, since equality, counts and hashes
  // read whole words.
  for (const std::int32_t w : {0, 1, 63, 64, 65, 127, 128, 129}) {
    for (const std::int32_t h : {0, 1, 3, 65}) {
      SCOPED_TRACE("h=" + std::to_string(h) + " w=" + std::to_string(w));
      Rng rng(static_cast<std::uint64_t>(h * 1000 + w));
      OccupancyGrid g = random_grid(h, w, 0.5, rng);
      ASSERT_TRUE(tails_zero(g));
      EXPECT_TRUE(tails_zero(OccupancyGrid(h, w)));
      std::int64_t atoms = 0;
      for (std::int32_t r = 0; r < h; ++r) {
        const RowView row = g.row(r);
        EXPECT_EQ(BitRow(row), row_bits(g, r));
        EXPECT_EQ(row, row_bits(g, r));
        EXPECT_EQ(row.count(), row_bits(g, r).count());
        atoms += row.count();
      }
      EXPECT_EQ(g.atom_count(), atoms);
      EXPECT_EQ(g.atom_positions().size(), static_cast<std::size_t>(atoms));
      EXPECT_EQ(g.flipped(Flip::Rotate180), ref::flipped(g, Flip::Rotate180));
      EXPECT_TRUE(tails_zero(g.flipped(Flip::Rotate180)));
      const Region whole{0, 0, h, w};
      EXPECT_EQ(g.subgrid(whole), ref::subgrid(g, whole));
      if (h == 0 || w == 0) continue;

      // Writers that could spill into a tail: whole-word writes, full rows,
      // columns, sub-grids and single sites.
      OccupancyGrid full = g;
      for (std::int32_t r = 0; r < h; ++r)
        for (std::size_t wi = 0; wi < full.stride(); ++wi) full.set_word(r, wi, ~std::uint64_t{0});
      EXPECT_TRUE(tails_zero(full));
      EXPECT_EQ(full.atom_count(), static_cast<std::int64_t>(h) * w);
      BitRow ones(static_cast<std::uint32_t>(w));
      ones.fill();
      OccupancyGrid rows = g;
      rows.set_row(h - 1, ones);
      EXPECT_TRUE(tails_zero(rows));
      EXPECT_EQ(BitRow(rows.row(h - 1)), ones);
      BitRow column(static_cast<std::uint32_t>(h));
      column.fill();
      OccupancyGrid cols = g;
      cols.set_column(w - 1, column);
      EXPECT_TRUE(tails_zero(cols));
      EXPECT_EQ(cols, ref::with_column(g, w - 1, column));
      EXPECT_EQ(g.column(w - 1), ref::column(g, w - 1));
      const Region tail{0, w - 1, h, 1};
      OccupancyGrid pasted = g;
      pasted.set_subgrid(tail, full.subgrid(tail));
      EXPECT_TRUE(tails_zero(pasted));
      EXPECT_EQ(pasted, ref::with_subgrid(g, tail, full.subgrid(tail)));
      OccupancyGrid sites = g;
      sites.clear({0, 0});
      sites.set({h - 1, w - 1});
      EXPECT_TRUE(tails_zero(sites));
      EXPECT_TRUE(sites.occupied({h - 1, w - 1}));
    }
  }
}

/// Naive cross-product AOD check, kept verbatim from the pre-word-mask
/// implementation as the differential reference.
[[nodiscard]] bool naive_aod_legal(const OccupancyGrid& grid, const ParallelMove& move) {
  std::vector<std::int32_t> rows, cols;
  for (const Coord& s : move.sites) {
    rows.push_back(s.row);
    cols.push_back(s.col);
  }
  for (const std::int32_t r : rows) {
    for (const std::int32_t c : cols) {
      const Coord cross{r, c};
      const bool member =
          std::find(move.sites.begin(), move.sites.end(), cross) != move.sites.end();
      if (grid.in_bounds(cross) && grid.occupied(cross) && !member) return false;
    }
  }
  return true;
}

TEST(GridOpsDifferential, AodViolationMatchesNaiveCrossProduct) {
  Rng rng(99);
  int violations = 0;
  for (int round = 0; round < 200; ++round) {
    const OccupancyGrid g = random_grid(40, 40, 0.3, rng);
    std::vector<Coord> sites;
    const std::uint32_t n = 1 + rng.uniform_below(8);
    for (std::uint32_t i = 0; i < n; ++i) {
      const Coord s{static_cast<std::int32_t>(rng.uniform_below(40)),
                    static_cast<std::int32_t>(rng.uniform_below(40))};
      if (std::find(sites.begin(), sites.end(), s) == sites.end()) sites.push_back(s);
    }
    const ParallelMove move{Direction::West, 1, sites};
    SCOPED_TRACE("round=" + std::to_string(round));
    const bool legal = is_aod_legal(g, move);
    EXPECT_EQ(legal, naive_aod_legal(g, move));
    if (!legal) ++violations;
  }
  EXPECT_GT(violations, 0) << "fuzz must exercise the violating path";
}

TEST(GridOpsDifferential, AodViolationReportsLowestRowThenColumn) {
  // Atoms at (1,5) and (5,1); moving (1,1)'s row/col cross both. The first
  // violation must be the lowest row, then lowest column — the contract the
  // word-mask scan shares with the historical per-cell scan.
  OccupancyGrid g(8, 8);
  g.set({1, 1});
  g.set({1, 5});
  g.set({5, 1});
  const std::vector<Coord> sites{{1, 1}, {1, 5}, {5, 5}};
  const ParallelMove move{Direction::West, 1, sites};
  const auto violation = aod_violation(g, move);
  ASSERT_TRUE(violation.has_value());
  EXPECT_NE(violation->find("(5,1)"), std::string::npos) << *violation;
}

}  // namespace
}  // namespace qrm
