#pragma once
/// \file detector.hpp
/// Atom detection: camera frame -> binary occupancy matrix (the bitfield the
/// rearrangement accelerator consumes).

#include <cstdint>

#include "detection/image.hpp"
#include "lattice/grid.hpp"

namespace qrm {

struct DetectionConfig {
  /// Photon threshold on the per-site integral; negative selects the
  /// automatic two-class (k-means style) threshold.
  double threshold_photons = -1.0;
  std::int32_t pixels_per_site = 5;  ///< must match the imaging geometry
  /// Miscalibration multiplier on the *applied* threshold (hostile-physics
  /// axis): the detector compares integrals against threshold *
  /// threshold_bias, whether the threshold is manual or automatic. The
  /// default 1.0 is a bit-exact identity (x * 1.0 == x), so well-calibrated
  /// configs are untouched. Must be finite and > 0.
  double threshold_bias = 1.0;
};

/// The detector's boundary predicate, pinned in one place: a site whose
/// photon integral equals the applied threshold EXACTLY counts as occupied
/// (>=). Both thresholding call sites — detect_atoms and the two-class
/// iteration's bright/dark split — route through this predicate so the tie
/// behaviour cannot drift apart between them.
[[nodiscard]] constexpr bool meets_threshold(double integral, double threshold) noexcept {
  return integral >= threshold;
}

/// Integrate each site's pixel block and threshold it. The automatic
/// threshold iterates the two-class midpoint (Otsu-like) until fixed point,
/// which separates the bimodal bright/dark site distribution.
[[nodiscard]] OccupancyGrid detect_atoms(const FluorescenceImage& image, std::int32_t grid_height,
                                         std::int32_t grid_width, const DetectionConfig& config);

/// Detection quality against ground truth.
struct DetectionErrors {
  std::int64_t false_positives = 0;  ///< detected where no atom exists
  std::int64_t false_negatives = 0;  ///< missed real atoms

  [[nodiscard]] std::int64_t total() const noexcept { return false_positives + false_negatives; }
};

[[nodiscard]] DetectionErrors compare_detection(const OccupancyGrid& truth,
                                                const OccupancyGrid& detected);

/// Corrupt a ground-truth grid with independent per-site detection errors
/// (for planner-robustness studies): each atom is dropped with probability
/// `p_false_negative`, each empty site spuriously fires with
/// `p_false_positive`.
[[nodiscard]] OccupancyGrid inject_detection_errors(const OccupancyGrid& truth,
                                                    double p_false_negative,
                                                    double p_false_positive, std::uint64_t seed);

}  // namespace qrm
