#include "loading/loader.hpp"

#include <algorithm>

#include "util/assert.hpp"

namespace qrm {

namespace {

/// Shared fill-probability validation for every stochastic loader. The
/// comparison form also rejects NaN (both comparisons are false), so a
/// corrupted probability can never silently skew sampling.
void check_probability(double p, const char* what) {
  QRM_EXPECTS_MSG(p >= 0.0 && p <= 1.0,
                  std::string(what) + " must be a probability in [0,1]");
}

}  // namespace

OccupancyGrid load_random(std::int32_t height, std::int32_t width, const LoaderConfig& config) {
  QRM_EXPECTS(height >= 0 && width >= 0);
  check_probability(config.fill_probability, "LoaderConfig::fill_probability");
  Rng rng(config.seed);
  const double p = config.fill_probability;
  return OccupancyGrid::generate(height, width,
                                 [&](std::int32_t, std::int32_t) { return rng.bernoulli(p); });
}

OccupancyGrid load_random_at_least(std::int32_t height, std::int32_t width,
                                   const LoaderConfig& config, std::int64_t min_atoms,
                                   std::uint32_t max_attempts) {
  QRM_EXPECTS(max_attempts > 0);
  QRM_EXPECTS_MSG(min_atoms >= 0, "load_random_at_least: min_atoms must be non-negative");
  check_probability(config.fill_probability, "LoaderConfig::fill_probability");
  OccupancyGrid best;
  std::int64_t best_count = -1;
  for (std::uint32_t attempt = 0; attempt < max_attempts; ++attempt) {
    LoaderConfig derived = config;
    // Derive independent streams; attempt 0 uses the caller's exact seed so
    // deterministic callers see the same grid as load_random.
    std::uint64_t mix = config.seed + attempt;
    derived.seed = attempt == 0 ? config.seed : splitmix64(mix);
    OccupancyGrid grid = load_random(height, width, derived);
    const std::int64_t count = grid.atom_count();
    if (count >= min_atoms) return grid;
    if (count > best_count) {
      best_count = count;
      best = std::move(grid);
    }
  }
  return best;
}

OccupancyGrid load_clustered(std::int32_t height, std::int32_t width,
                             const ClusteredLoaderConfig& config) {
  check_probability(config.base.fill_probability, "ClusteredLoaderConfig::base.fill_probability");
  QRM_EXPECTS_MSG(config.cluster_radius >= 0,
                  "ClusteredLoaderConfig::cluster_radius must be non-negative");
  OccupancyGrid grid = load_random(height, width, config.base);
  Rng rng(config.base.seed ^ 0xC1A57E20ULL);
  const std::int64_t r2 = static_cast<std::int64_t>(config.cluster_radius) * config.cluster_radius;
  for (std::uint32_t k = 0; k < config.clusters; ++k) {
    const auto cr = static_cast<std::int32_t>(rng.uniform_below(static_cast<std::uint32_t>(height)));
    const auto cc = static_cast<std::int32_t>(rng.uniform_below(static_cast<std::uint32_t>(width)));
    // The blast disc as a mask, row by row; each row word is cleared once.
    for (std::int32_t r = 0; r < height; ++r) {
      const std::int64_t dr = r - cr;
      if (dr * dr > r2) continue;
      for (std::size_t wi = 0; wi < grid.stride(); ++wi) {
        const auto c0 = static_cast<std::int32_t>(wi * OccupancyGrid::kWordBits);
        const std::int32_t bits =
            std::min(static_cast<std::int32_t>(OccupancyGrid::kWordBits), width - c0);
        OccupancyGrid::Word blast = 0;
        for (std::int32_t b = 0; b < bits; ++b) {
          const std::int64_t dc = c0 + b - cc;
          blast |= static_cast<OccupancyGrid::Word>(dr * dr + dc * dc <= r2) << b;
        }
        if (blast != 0) grid.set_word(r, wi, grid.row(r).words()[wi] & ~blast);
      }
    }
  }
  return grid;
}

OccupancyGrid load_pattern(std::int32_t height, std::int32_t width, Pattern pattern) {
  return OccupancyGrid::generate(height, width, [=](std::int32_t r, std::int32_t c) {
    switch (pattern) {
      case Pattern::Full: return true;
      case Pattern::Empty: return false;
      case Pattern::Checkerboard: return (r + c) % 2 == 0;
      case Pattern::RowStripes: return r % 2 == 0;
      case Pattern::ColStripes: return c % 2 == 0;
      case Pattern::Border: return r == 0 || c == 0 || r == height - 1 || c == width - 1;
      case Pattern::CornerBlock: return r < (height + 1) / 2 && c < (width + 1) / 2;
      case Pattern::HalfGrid: return r < (height + 1) / 2;
    }
    return false;
  });
}

OccupancyGrid load_gradient(std::int32_t height, std::int32_t width,
                            const GradientLoaderConfig& config) {
  QRM_EXPECTS(height >= 0 && width >= 0);
  check_probability(config.start_fill, "GradientLoaderConfig::start_fill");
  check_probability(config.end_fill, "GradientLoaderConfig::end_fill");
  const std::int32_t span = config.axis == GradientAxis::Rows ? height : width;
  Rng rng(config.seed);
  return OccupancyGrid::generate(height, width, [&](std::int32_t r, std::int32_t c) {
    const std::int32_t pos = config.axis == GradientAxis::Rows ? r : c;
    // Endpoints take the configured fills *exactly*: the interpolated form
    // start + (end - start) * 1.0 can land one ulp off end_fill, which
    // turns a nominal 1.0 (always load) or 0.0 (never load) endpoint into
    // a ~1e-16 chance of the opposite — under/over-filling the edge line.
    // A one-line/one-trap span has no ramp to interpolate; use start_fill.
    double p;
    if (pos == 0 || span <= 1) {
      p = config.start_fill;
    } else if (pos == span - 1) {
      p = config.end_fill;
    } else {
      const double t = static_cast<double>(pos) / (span - 1);
      p = config.start_fill + (config.end_fill - config.start_fill) * t;
    }
    return rng.bernoulli(p);
  });
}

}  // namespace qrm
