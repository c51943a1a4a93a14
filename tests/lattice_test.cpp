// Tests for lattice: grid operations, flips, regions, quadrant geometry.

#include <gtest/gtest.h>

#include "util/assert.hpp"
#include "lattice/direction.hpp"
#include "lattice/grid.hpp"
#include "lattice/quadrant.hpp"
#include "lattice/region.hpp"

namespace qrm {
namespace {

TEST(Region, CenteredPlacement) {
  const Region r = centered_square(50, 30);
  EXPECT_EQ(r.row0, 10);
  EXPECT_EQ(r.col0, 10);
  EXPECT_EQ(r.rows, 30);
  EXPECT_EQ(r.area(), 900);
  EXPECT_TRUE(r.within(50, 50));
  EXPECT_TRUE(r.contains({10, 10}));
  EXPECT_TRUE(r.contains({39, 39}));
  EXPECT_FALSE(r.contains({40, 10}));
  EXPECT_THROW((void)centered_square(10, 12), PreconditionError);
}

TEST(Region, RectangularCentering) {
  const Region r = centered_region(20, 40, 10, 16);
  EXPECT_EQ(r.row0, 5);
  EXPECT_EQ(r.col0, 12);
}

TEST(Direction, DeltasAndOpposites) {
  EXPECT_EQ(direction_delta(Direction::North), (Coord{-1, 0}));
  EXPECT_EQ(direction_delta(Direction::East), (Coord{0, 1}));
  // Opposite directions cancel.
  EXPECT_EQ(moved(moved({5, 5}, Direction::West, 2), Direction::East, 2), (Coord{5, 5}));
  EXPECT_EQ(moved(moved({5, 5}, Direction::South, 1), Direction::North, 1), (Coord{5, 5}));
  EXPECT_TRUE(is_horizontal(Direction::West));
  EXPECT_FALSE(is_horizontal(Direction::North));
  EXPECT_EQ(moved({5, 5}, Direction::South, 3), (Coord{8, 5}));
}

TEST(Grid, FromStringsAndBasics) {
  const OccupancyGrid g = OccupancyGrid::from_strings({
      "#..",
      ".#.",
      "..#",
  });
  EXPECT_EQ(g.height(), 3);
  EXPECT_EQ(g.width(), 3);
  EXPECT_EQ(g.atom_count(), 3);
  EXPECT_TRUE(g.occupied({0, 0}));
  EXPECT_FALSE(g.occupied({0, 1}));
  EXPECT_THROW((void)g.occupied({3, 0}), PreconditionError);
  EXPECT_THROW((void)OccupancyGrid::from_strings({"##", "#"}), PreconditionError);
}

TEST(Grid, RegionQueries) {
  OccupancyGrid g(4, 4);
  const Region r{1, 1, 2, 2};
  EXPECT_EQ(g.atom_count(r), 0);
  EXPECT_FALSE(g.region_full(r));
  g.set({0, 0});
  g.set({1, 1});
  g.set({1, 2});
  g.set({2, 1});
  EXPECT_EQ(g.atom_count(r), 3);
  EXPECT_FALSE(g.region_full(r));
  g.set({2, 2});
  EXPECT_EQ(g.atom_count(r), 4);
  EXPECT_TRUE(g.region_full(r));
}

TEST(Grid, RowColumnAccess) {
  OccupancyGrid g(3, 5);
  g.set({1, 0});
  g.set({1, 4});
  EXPECT_EQ(g.row(1).to_string(), "10001");
  g.set({0, 2});
  g.set({2, 2});
  EXPECT_EQ(g.column(2).to_string(), "101");
  BitRow new_col(3);
  new_col.set(0);
  g.set_column(4, new_col);
  EXPECT_TRUE(g.occupied({0, 4}));
  EXPECT_FALSE(g.occupied({1, 4}));
  EXPECT_THROW(g.set_row(0, BitRow(4)), PreconditionError);
}

TEST(Grid, FlipsAreInvolutionsAndMapCoords) {
  const OccupancyGrid g = OccupancyGrid::from_strings({
      "#..#",
      "....",
      ".#..",
      "...#",
  });
  for (const Flip f : {Flip::Horizontal, Flip::Vertical, Flip::Rotate180}) {
    EXPECT_EQ(g.flipped(f).flipped(f), g) << "flip must be self-inverse";
  }
  // map_coord consistency: flipped grid at mapped coordinate equals original.
  for (const Flip f : {Flip::None, Flip::Horizontal, Flip::Vertical, Flip::Rotate180}) {
    const OccupancyGrid flipped = g.flipped(f);
    for (std::int32_t r = 0; r < g.height(); ++r)
      for (std::int32_t c = 0; c < g.width(); ++c)
        EXPECT_EQ(flipped.occupied(g.map_coord(f, {r, c})), g.occupied({r, c}));
  }
}

TEST(Grid, SubgridRoundTrip) {
  OccupancyGrid g(6, 6);
  g.set({2, 3});
  g.set({3, 2});
  const Region r{2, 2, 2, 2};
  const OccupancyGrid sub = g.subgrid(r);
  EXPECT_EQ(sub.atom_count(), 2);
  OccupancyGrid h(6, 6);
  h.set_subgrid(r, sub);
  EXPECT_EQ(h, g);
}

TEST(Grid, ArtHighlightsDefects) {
  OccupancyGrid g(2, 2);
  g.set({0, 0});
  const std::string art = g.to_art(Region{0, 0, 2, 1});
  EXPECT_EQ(art, "O.\nx.\n");
}

TEST(QuadrantGeometry, RequiresEvenDimensions) {
  EXPECT_THROW(QuadrantGeometry(5, 4), PreconditionError);
  EXPECT_THROW(QuadrantGeometry(4, 5), PreconditionError);
  EXPECT_NO_THROW(QuadrantGeometry(4, 6));
}

TEST(QuadrantGeometry, RegionsPartitionTheGrid) {
  const QuadrantGeometry geom(10, 8);
  std::int64_t area = 0;
  for (const Quadrant q : kAllQuadrants) area += geom.global_region(q).area();
  EXPECT_EQ(area, 80);
  EXPECT_EQ(geom.global_region(Quadrant::SE), (Region{5, 4, 5, 4}));
}

TEST(QuadrantGeometry, LocalOriginIsCentreCorner) {
  const QuadrantGeometry geom(10, 10);
  EXPECT_EQ(geom.to_global(Quadrant::NW, {0, 0}), (Coord{4, 4}));
  EXPECT_EQ(geom.to_global(Quadrant::NE, {0, 0}), (Coord{4, 5}));
  EXPECT_EQ(geom.to_global(Quadrant::SW, {0, 0}), (Coord{5, 4}));
  EXPECT_EQ(geom.to_global(Quadrant::SE, {0, 0}), (Coord{5, 5}));
}

TEST(QuadrantGeometry, RoundTripBijection) {
  const QuadrantGeometry geom(12, 16);
  for (std::int32_t r = 0; r < 12; ++r) {
    for (std::int32_t c = 0; c < 16; ++c) {
      const Quadrant q = geom.quadrant_of({r, c});
      const Coord local = geom.to_local(q, {r, c});
      EXPECT_GE(local.row, 0);
      EXPECT_LT(local.row, geom.local_height());
      EXPECT_GE(local.col, 0);
      EXPECT_LT(local.col, geom.local_width());
      EXPECT_EQ(geom.to_global(q, local), (Coord{r, c}));
    }
  }
}

TEST(QuadrantGeometry, ExtractWriteBackRoundTrip) {
  OccupancyGrid g(8, 8);
  // Arbitrary asymmetric pattern.
  g.set({0, 1});
  g.set({3, 3});
  g.set({4, 4});
  g.set({6, 2});
  g.set({1, 7});
  const QuadrantGeometry geom(8, 8);
  OccupancyGrid rebuilt(8, 8);
  for (const Quadrant q : kAllQuadrants) {
    const OccupancyGrid local = geom.extract_local(g, q);
    geom.write_back(rebuilt, q, local);
  }
  EXPECT_EQ(rebuilt, g);
}

TEST(QuadrantGeometry, ExtractPutsCentreAtOrigin) {
  OccupancyGrid g(6, 6);
  g.set({2, 2});  // NW centre-corner cell
  const QuadrantGeometry geom(6, 6);
  const OccupancyGrid local = geom.extract_local(g, Quadrant::NW);
  EXPECT_TRUE(local.occupied({0, 0}));
  EXPECT_EQ(local.atom_count(), 1);
}

}  // namespace
}  // namespace qrm
