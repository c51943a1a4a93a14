#pragma once
/// \file loader.hpp
/// Stochastic atom-loading models.
///
/// Physically, each optical trap captures a single atom with probability
/// ~50% (collisional blockade). The paper evaluates on random matrices drawn
/// from exactly this distribution; these generators reproduce that workload
/// plus structured variants used for stress tests.

#include <cstdint>

#include "lattice/grid.hpp"
#include "lattice/region.hpp"
#include "util/rng.hpp"

namespace qrm {

/// Parameters of the independent-Bernoulli loading model.
struct LoaderConfig {
  double fill_probability = 0.5;  ///< per-trap capture probability in [0,1]
  std::uint64_t seed = 0x5EED;    ///< RNG seed; same seed -> same pattern
};

/// Draw an independent Bernoulli occupancy for every trap.
[[nodiscard]] OccupancyGrid load_random(std::int32_t height, std::int32_t width,
                                        const LoaderConfig& config);

/// Like load_random but retries (with derived seeds) until the grid holds at
/// least `min_atoms` atoms; models the experimental practice of re-loading
/// until enough atoms are present. Gives up after `max_attempts` and returns
/// the best attempt.
[[nodiscard]] OccupancyGrid load_random_at_least(std::int32_t height, std::int32_t width,
                                                 const LoaderConfig& config,
                                                 std::int64_t min_atoms,
                                                 std::uint32_t max_attempts = 64);

/// Clustered-defect loader: Bernoulli loading followed by `clusters` circular
/// blast regions of radius `cluster_radius` being emptied. Models correlated
/// loss (stray light, collisions) that stresses rearrangement balance.
struct ClusteredLoaderConfig {
  LoaderConfig base;
  std::uint32_t clusters = 3;
  std::int32_t cluster_radius = 2;
};
[[nodiscard]] OccupancyGrid load_clustered(std::int32_t height, std::int32_t width,
                                           const ClusteredLoaderConfig& config);

/// Which way a gradient loading profile ramps.
enum class GradientAxis : std::uint8_t {
  Rows,  ///< fill probability varies with the row index (top -> bottom)
  Cols,  ///< fill probability varies with the column index (left -> right)
};

/// Linear fill-probability ramp: independent Bernoulli loading whose
/// per-trap probability interpolates from `start_fill` at the first
/// row/column to `end_fill` at the last. Models spatially non-uniform trap
/// depth (beam-profile falloff across the array), a workload family the
/// uniform/clustered loaders cannot express: one side of the array is
/// atom-rich and the other atom-poor, which maximally stresses the
/// planner's cross-array balance.
struct GradientLoaderConfig {
  double start_fill = 0.2;           ///< fill probability at row/col 0, in [0,1]
  double end_fill = 0.8;             ///< fill probability at the last row/col, in [0,1]
  GradientAxis axis = GradientAxis::Rows;
  std::uint64_t seed = 0x5EED;       ///< RNG seed; same seed -> same pattern
};
[[nodiscard]] OccupancyGrid load_gradient(std::int32_t height, std::int32_t width,
                                          const GradientLoaderConfig& config);

/// Deterministic patterns for unit tests and worst-case studies.
enum class Pattern {
  Full,          ///< every trap occupied
  Empty,         ///< no atoms
  Checkerboard,  ///< (r+c) even occupied — exactly 50% fill, adversarial for row balance
  RowStripes,    ///< even rows full, odd rows empty — worst case for column balance
  ColStripes,    ///< even columns full — worst case for row compaction
  Border,        ///< only the outermost ring occupied — maximal travel distance
  CornerBlock,   ///< top-left ceil(H/2) x ceil(W/2) block full — every atom in one
                 ///< quadrant, the worst case for cross-quadrant balance passes
  HalfGrid,      ///< top ceil(H/2) rows full — maximal one-directional rebalance
};
[[nodiscard]] OccupancyGrid load_pattern(std::int32_t height, std::int32_t width, Pattern pattern);

}  // namespace qrm
