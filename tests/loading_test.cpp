// Tests for the stochastic loading substrate.

#include <gtest/gtest.h>

#include <limits>
#include <vector>

#include "util/assert.hpp"
#include "loading/loader.hpp"
#include "util/rng.hpp"

namespace qrm {
namespace {

// Per-site reference loaders: one set() per drawn site, row-major. They pin
// the RNG draw order the word-at-a-time loaders must keep.

OccupancyGrid reference_random(std::int32_t h, std::int32_t w, const LoaderConfig& config) {
  OccupancyGrid grid(h, w);
  Rng rng(config.seed);
  for (std::int32_t r = 0; r < h; ++r)
    for (std::int32_t c = 0; c < w; ++c)
      if (rng.bernoulli(config.fill_probability)) grid.set({r, c});
  return grid;
}

OccupancyGrid reference_clustered(std::int32_t h, std::int32_t w,
                                  const ClusteredLoaderConfig& config) {
  OccupancyGrid grid = reference_random(h, w, config.base);
  Rng rng(config.base.seed ^ 0xC1A57E20ULL);
  const std::int64_t r2 = static_cast<std::int64_t>(config.cluster_radius) * config.cluster_radius;
  for (std::uint32_t k = 0; k < config.clusters; ++k) {
    const auto cr = static_cast<std::int32_t>(rng.uniform_below(static_cast<std::uint32_t>(h)));
    const auto cc = static_cast<std::int32_t>(rng.uniform_below(static_cast<std::uint32_t>(w)));
    for (std::int32_t r = 0; r < h; ++r)
      for (std::int32_t c = 0; c < w; ++c)
        if (std::int64_t{r - cr} * (r - cr) + std::int64_t{c - cc} * (c - cc) <= r2)
          grid.clear({r, c});
  }
  return grid;
}

OccupancyGrid reference_gradient(std::int32_t h, std::int32_t w,
                                 const GradientLoaderConfig& config) {
  const std::int32_t span = config.axis == GradientAxis::Rows ? h : w;
  OccupancyGrid grid(h, w);
  Rng rng(config.seed);
  for (std::int32_t r = 0; r < h; ++r) {
    for (std::int32_t c = 0; c < w; ++c) {
      const std::int32_t pos = config.axis == GradientAxis::Rows ? r : c;
      double p;
      if (pos == 0 || span <= 1) {
        p = config.start_fill;
      } else if (pos == span - 1) {
        p = config.end_fill;
      } else {
        const double t = static_cast<double>(pos) / (span - 1);
        p = config.start_fill + (config.end_fill - config.start_fill) * t;
      }
      if (rng.bernoulli(p)) grid.set({r, c});
    }
  }
  return grid;
}

OccupancyGrid reference_pattern(std::int32_t h, std::int32_t w, Pattern pattern) {
  OccupancyGrid grid(h, w);
  for (std::int32_t r = 0; r < h; ++r) {
    for (std::int32_t c = 0; c < w; ++c) {
      bool occ = false;
      switch (pattern) {
        case Pattern::Full: occ = true; break;
        case Pattern::Empty: occ = false; break;
        case Pattern::Checkerboard: occ = (r + c) % 2 == 0; break;
        case Pattern::RowStripes: occ = r % 2 == 0; break;
        case Pattern::ColStripes: occ = c % 2 == 0; break;
        case Pattern::Border: occ = r == 0 || c == 0 || r == h - 1 || c == w - 1; break;
        case Pattern::CornerBlock: occ = r < (h + 1) / 2 && c < (w + 1) / 2; break;
        case Pattern::HalfGrid: occ = r < (h + 1) / 2; break;
      }
      if (occ) grid.set({r, c});
    }
  }
  return grid;
}

TEST(Loader, WordLoadersMatchThePerSiteReference) {
  const std::vector<std::pair<std::int32_t, std::int32_t>> shapes = {
      {0, 0}, {0, 5}, {5, 0}, {1, 1}, {3, 63}, {2, 64}, {4, 65}, {7, 130}, {50, 50}, {65, 3}};
  for (const auto& [h, w] : shapes) {
    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
      SCOPED_TRACE(std::to_string(h) + "x" + std::to_string(w) + " seed " + std::to_string(seed));
      for (const double fill : {0.0, 0.3, 0.55, 1.0}) {
        EXPECT_EQ(load_random(h, w, {fill, seed}), reference_random(h, w, {fill, seed}));
      }
      for (const std::int32_t radius : {0, 2, 9}) {
        const ClusteredLoaderConfig clustered{{0.7, seed}, 3, radius};
        EXPECT_EQ(load_clustered(h, w, clustered), reference_clustered(h, w, clustered));
      }
      for (const GradientAxis axis : {GradientAxis::Rows, GradientAxis::Cols}) {
        const GradientLoaderConfig gradient{0.1, 0.9, axis, seed};
        EXPECT_EQ(load_gradient(h, w, gradient), reference_gradient(h, w, gradient));
      }
    }
    for (const Pattern pattern :
         {Pattern::Full, Pattern::Empty, Pattern::Checkerboard, Pattern::RowStripes,
          Pattern::ColStripes, Pattern::Border, Pattern::CornerBlock, Pattern::HalfGrid})
      EXPECT_EQ(load_pattern(h, w, pattern), reference_pattern(h, w, pattern));
  }
}

TEST(Loader, DeterministicPerSeed) {
  const OccupancyGrid a = load_random(20, 20, {0.5, 42});
  const OccupancyGrid b = load_random(20, 20, {0.5, 42});
  EXPECT_EQ(a, b);
  const OccupancyGrid c = load_random(20, 20, {0.5, 43});
  EXPECT_NE(a, c);
}

TEST(Loader, FillFractionConcentrates) {
  const OccupancyGrid g = load_random(100, 100, {0.5, 1});
  const double fill = static_cast<double>(g.atom_count()) / (100.0 * 100.0);
  EXPECT_NEAR(fill, 0.5, 0.03);
  const OccupancyGrid h = load_random(100, 100, {0.9, 2});
  EXPECT_NEAR(static_cast<double>(h.atom_count()) / 1e4, 0.9, 0.02);
}

TEST(Loader, ExtremesAreExact) {
  EXPECT_EQ(load_random(10, 10, {0.0, 3}).atom_count(), 0);
  EXPECT_EQ(load_random(10, 10, {1.0, 3}).atom_count(), 100);
  EXPECT_THROW((void)load_random(10, 10, {1.5, 3}), PreconditionError);
}

TEST(Loader, OutOfRangeProbabilitiesThrowEverywhere) {
  // Every loader family must reject an out-of-[0,1] (or NaN) probability
  // instead of silently skewing the sample (mirrors the stats::min/max
  // empty-span hardening).
  const double nan = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW((void)load_random(4, 4, {-0.1, 3}), PreconditionError);
  EXPECT_THROW((void)load_random(4, 4, {nan, 3}), PreconditionError);
  EXPECT_THROW((void)load_random_at_least(4, 4, {1.5, 3}, 1), PreconditionError);
  EXPECT_THROW((void)load_random_at_least(4, 4, {0.5, 3}, -1), PreconditionError);
  ClusteredLoaderConfig clustered;
  clustered.base = {2.0, 3};
  EXPECT_THROW((void)load_clustered(4, 4, clustered), PreconditionError);
  clustered.base = {0.5, 3};
  clustered.cluster_radius = -1;
  EXPECT_THROW((void)load_clustered(4, 4, clustered), PreconditionError);
  GradientLoaderConfig gradient;
  gradient.start_fill = -0.01;
  EXPECT_THROW((void)load_gradient(4, 4, gradient), PreconditionError);
  gradient.start_fill = 0.2;
  gradient.end_fill = 1.01;
  EXPECT_THROW((void)load_gradient(4, 4, gradient), PreconditionError);
}

TEST(Loader, GradientIsDeterministicAndRamps) {
  GradientLoaderConfig config;
  config.start_fill = 0.1;
  config.end_fill = 0.9;
  config.seed = 77;
  const OccupancyGrid a = load_gradient(64, 64, config);
  const OccupancyGrid b = load_gradient(64, 64, config);
  EXPECT_EQ(a, b);

  // The top third of the rows must be markedly emptier than the bottom
  // third (expected fills ~0.23 vs ~0.77 over 64*21 trap draws).
  std::int64_t top = 0;
  std::int64_t bottom = 0;
  for (std::int32_t r = 0; r < 21; ++r) top += a.row(r).count();
  for (std::int32_t r = 43; r < 64; ++r) bottom += a.row(r).count();
  EXPECT_LT(top * 2, bottom);

  // Column ramp: same statistics, transposed.
  config.axis = GradientAxis::Cols;
  const OccupancyGrid c = load_gradient(64, 64, config);
  std::int64_t left = 0;
  std::int64_t right = 0;
  for (std::int32_t r = 0; r < 64; ++r) {
    for (std::int32_t col = 0; col < 21; ++col) left += c.occupied({r, col}) ? 1 : 0;
    for (std::int32_t col = 43; col < 64; ++col) right += c.occupied({r, col}) ? 1 : 0;
  }
  EXPECT_LT(left * 2, right);
}

TEST(Loader, GradientExtremesAndDegenerateSpans) {
  EXPECT_EQ(load_gradient(8, 8, {0.0, 0.0, GradientAxis::Rows, 1}).atom_count(), 0);
  EXPECT_EQ(load_gradient(8, 8, {1.0, 1.0, GradientAxis::Cols, 1}).atom_count(), 64);
  // One row: no ramp to interpolate; behaves like Bernoulli(start_fill).
  EXPECT_EQ(load_gradient(1, 16, {1.0, 0.0, GradientAxis::Rows, 1}).atom_count(), 16);
  EXPECT_EQ(load_gradient(0, 0, {0.3, 0.7, GradientAxis::Rows, 1}).atom_count(), 0);
}

TEST(Loader, GradientEndpointLinesAreExactAtExtremeFills) {
  // A 0.0 or 1.0 endpoint fill must be honoured *exactly* on the endpoint
  // line, for every seed. The interpolated form start + (end-start)*t can
  // land one ulp off at t=1, turning "always load" into a ~1e-16 chance of
  // a hole — this pins the endpoint-exactness fix.
  for (std::uint64_t seed = 0; seed < 32; ++seed) {
    const OccupancyGrid up = load_gradient(48, 8, {0.0, 1.0, GradientAxis::Rows, seed});
    EXPECT_EQ(up.row(0).count(), 0u) << "seed " << seed;
    EXPECT_EQ(up.row(47).count(), 8u) << "seed " << seed;
    const OccupancyGrid down = load_gradient(48, 8, {1.0, 0.0, GradientAxis::Rows, seed});
    EXPECT_EQ(down.row(0).count(), 8u) << "seed " << seed;
    EXPECT_EQ(down.row(47).count(), 0u) << "seed " << seed;
  }
}

TEST(Loader, ClusteredDegenerateFills) {
  // Blast regions on an already-empty grid stay a no-op; a full grid with
  // zero clusters stays full; a 1xN strip with a blast region bigger than
  // the strip empties completely. None of these may throw or over/underfill.
  ClusteredLoaderConfig config;
  config.base = {0.0, 7};
  config.clusters = 4;
  config.cluster_radius = 3;
  EXPECT_EQ(load_clustered(12, 12, config).atom_count(), 0);
  config.base = {1.0, 7};
  config.clusters = 0;
  EXPECT_EQ(load_clustered(12, 12, config).atom_count(), 144);
  config.clusters = 8;
  config.cluster_radius = 16;
  EXPECT_EQ(load_clustered(1, 12, config).atom_count(), 0);
}

TEST(Loader, AtLeastRetriesUntilEnough) {
  // Demand slightly above the mean so the first draw sometimes misses.
  const OccupancyGrid g = load_random_at_least(20, 20, {0.5, 9}, 205);
  EXPECT_GE(g.atom_count(), 205);
}

TEST(Loader, AtLeastReturnsBestEffortWhenImpossible) {
  const OccupancyGrid g = load_random_at_least(4, 4, {0.5, 9}, 1000, 4);
  EXPECT_LT(g.atom_count(), 1000);
  EXPECT_GT(g.atom_count(), 0);
}

TEST(Loader, ClusteredRemovesAtoms) {
  ClusteredLoaderConfig config;
  config.base = {0.9, 5};
  config.clusters = 4;
  config.cluster_radius = 3;
  const OccupancyGrid g = load_clustered(30, 30, config);
  const OccupancyGrid base = load_random(30, 30, config.base);
  EXPECT_LT(g.atom_count(), base.atom_count());
}

TEST(Loader, Patterns) {
  EXPECT_EQ(load_pattern(4, 4, Pattern::Full).atom_count(), 16);
  EXPECT_EQ(load_pattern(4, 4, Pattern::Empty).atom_count(), 0);
  EXPECT_EQ(load_pattern(4, 4, Pattern::Checkerboard).atom_count(), 8);
  EXPECT_EQ(load_pattern(4, 4, Pattern::RowStripes).atom_count(), 8);
  EXPECT_EQ(load_pattern(4, 4, Pattern::ColStripes).atom_count(), 8);
  EXPECT_EQ(load_pattern(4, 4, Pattern::Border).atom_count(), 12);
  // CornerBlock: the top-left ceil(H/2) x ceil(W/2) block, exact on odd dims.
  EXPECT_EQ(load_pattern(4, 4, Pattern::CornerBlock).atom_count(), 4);
  EXPECT_EQ(load_pattern(5, 5, Pattern::CornerBlock).atom_count(), 9);
  EXPECT_TRUE(load_pattern(4, 4, Pattern::CornerBlock).occupied({1, 1}));
  EXPECT_FALSE(load_pattern(4, 4, Pattern::CornerBlock).occupied({2, 1}));
  EXPECT_FALSE(load_pattern(4, 4, Pattern::CornerBlock).occupied({1, 2}));
  // HalfGrid: the top ceil(H/2) rows, exact on odd heights.
  EXPECT_EQ(load_pattern(4, 4, Pattern::HalfGrid).atom_count(), 8);
  EXPECT_EQ(load_pattern(5, 4, Pattern::HalfGrid).atom_count(), 12);
  EXPECT_TRUE(load_pattern(4, 4, Pattern::HalfGrid).occupied({1, 3}));
  EXPECT_FALSE(load_pattern(4, 4, Pattern::HalfGrid).occupied({2, 0}));
  const OccupancyGrid cb = load_pattern(3, 3, Pattern::Checkerboard);
  EXPECT_TRUE(cb.occupied({0, 0}));
  EXPECT_FALSE(cb.occupied({0, 1}));
  EXPECT_TRUE(cb.occupied({1, 1}));
}

}  // namespace
}  // namespace qrm
