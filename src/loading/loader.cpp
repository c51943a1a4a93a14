#include "loading/loader.hpp"

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
  OccupancyGrid grid(height, width);
  Rng rng(config.seed);
  for (std::int32_t r = 0; r < height; ++r)
    for (std::int32_t c = 0; c < width; ++c)
      if (rng.bernoulli(config.fill_probability)) grid.set({r, c});
  return grid;
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
  for (std::uint32_t k = 0; k < config.clusters; ++k) {
    const auto cr = static_cast<std::int32_t>(rng.uniform_below(static_cast<std::uint32_t>(height)));
    const auto cc = static_cast<std::int32_t>(rng.uniform_below(static_cast<std::uint32_t>(width)));
    const std::int64_t r2 =
        static_cast<std::int64_t>(config.cluster_radius) * config.cluster_radius;
    for (std::int32_t r = 0; r < height; ++r) {
      for (std::int32_t c = 0; c < width; ++c) {
        const std::int64_t dr = r - cr;
        const std::int64_t dc = c - cc;
        if (dr * dr + dc * dc <= r2) grid.clear({r, c});
      }
    }
  }
  return grid;
}

OccupancyGrid load_pattern(std::int32_t height, std::int32_t width, Pattern pattern) {
  OccupancyGrid grid(height, width);
  for (std::int32_t r = 0; r < height; ++r) {
    for (std::int32_t c = 0; c < width; ++c) {
      bool occ = false;
      switch (pattern) {
        case Pattern::Full: occ = true; break;
        case Pattern::Empty: occ = false; break;
        case Pattern::Checkerboard: occ = (r + c) % 2 == 0; break;
        case Pattern::RowStripes: occ = r % 2 == 0; break;
        case Pattern::ColStripes: occ = c % 2 == 0; break;
        case Pattern::Border: occ = r == 0 || c == 0 || r == height - 1 || c == width - 1; break;
        case Pattern::CornerBlock: occ = r < (height + 1) / 2 && c < (width + 1) / 2; break;
        case Pattern::HalfGrid: occ = r < (height + 1) / 2; break;
      }
      if (occ) grid.set({r, c});
    }
  }
  return grid;
}

OccupancyGrid load_gradient(std::int32_t height, std::int32_t width,
                            const GradientLoaderConfig& config) {
  QRM_EXPECTS(height >= 0 && width >= 0);
  check_probability(config.start_fill, "GradientLoaderConfig::start_fill");
  check_probability(config.end_fill, "GradientLoaderConfig::end_fill");
  const std::int32_t span = config.axis == GradientAxis::Rows ? height : width;
  OccupancyGrid grid(height, width);
  Rng rng(config.seed);
  for (std::int32_t r = 0; r < height; ++r) {
    for (std::int32_t c = 0; c < width; ++c) {
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
      if (rng.bernoulli(p)) grid.set({r, c});
    }
  }
  return grid;
}

}  // namespace qrm
