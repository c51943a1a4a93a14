#include "detection/detector.hpp"

#include <bit>
#include <cmath>
#include <span>
#include <vector>

#include "util/assert.hpp"
#include "util/rng.hpp"

namespace qrm {

namespace {

std::vector<double> site_integrals(const FluorescenceImage& image, std::int32_t grid_height,
                                   std::int32_t grid_width, std::int32_t pps) {
  std::vector<double> integrals;
  integrals.reserve(static_cast<std::size_t>(grid_height) *
                    static_cast<std::size_t>(grid_width));
  for (std::int32_t r = 0; r < grid_height; ++r)
    for (std::int32_t c = 0; c < grid_width; ++c)
      integrals.push_back(image.integrate(r * pps, c * pps, pps, pps));
  return integrals;
}

double two_class_threshold(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double lo = values.front();
  double hi = values.front();
  for (const double v : values) {
    lo = std::min(lo, v);
    hi = std::max(hi, v);
  }
  double threshold = 0.5 * (lo + hi);
  // Iterate class-mean midpoint to a fixed point (converges quickly on the
  // bimodal bright/dark distribution).
  for (int iter = 0; iter < 32; ++iter) {
    double dark_sum = 0.0;
    double bright_sum = 0.0;
    std::size_t dark_n = 0;
    std::size_t bright_n = 0;
    for (const double v : values) {
      if (!meets_threshold(v, threshold)) {
        dark_sum += v;
        ++dark_n;
      } else {
        bright_sum += v;
        ++bright_n;
      }
    }
    if (dark_n == 0 || bright_n == 0) break;
    const double next =
        0.5 * (dark_sum / static_cast<double>(dark_n) + bright_sum / static_cast<double>(bright_n));
    if (std::abs(next - threshold) < 1e-9) break;
    threshold = next;
  }
  return threshold;
}

}  // namespace

OccupancyGrid detect_atoms(const FluorescenceImage& image, std::int32_t grid_height,
                           std::int32_t grid_width, const DetectionConfig& config) {
  QRM_EXPECTS(grid_height > 0 && grid_width > 0 && config.pixels_per_site > 0);
  QRM_EXPECTS_MSG(std::isfinite(config.threshold_bias) && config.threshold_bias > 0.0,
                  "threshold_bias must be finite and positive");
  QRM_EXPECTS_MSG(image.height() >= grid_height * config.pixels_per_site &&
                      image.width() >= grid_width * config.pixels_per_site,
                  "image too small for the requested grid geometry");
  const std::vector<double> integrals =
      site_integrals(image, grid_height, grid_width, config.pixels_per_site);
  const double threshold =
      (config.threshold_photons >= 0.0 ? config.threshold_photons
                                       : two_class_threshold(integrals)) *
      config.threshold_bias;

  auto integral = integrals.begin();
  return OccupancyGrid::generate(grid_height, grid_width, [&](std::int32_t, std::int32_t) {
    return meets_threshold(*integral++, threshold);
  });
}

DetectionErrors compare_detection(const OccupancyGrid& truth, const OccupancyGrid& detected) {
  QRM_EXPECTS(truth.height() == detected.height() && truth.width() == detected.width());
  DetectionErrors errors;
  const std::span<const OccupancyGrid::Word> real = truth.words();
  const std::span<const OccupancyGrid::Word> seen = detected.words();
  for (std::size_t i = 0; i < real.size(); ++i) {
    errors.false_positives += std::popcount(seen[i] & ~real[i]);
    errors.false_negatives += std::popcount(real[i] & ~seen[i]);
  }
  return errors;
}

OccupancyGrid inject_detection_errors(const OccupancyGrid& truth, double p_false_negative,
                                      double p_false_positive, std::uint64_t seed) {
  QRM_EXPECTS(p_false_negative >= 0.0 && p_false_negative <= 1.0);
  QRM_EXPECTS(p_false_positive >= 0.0 && p_false_positive <= 1.0);
  Rng rng(seed);
  return OccupancyGrid::generate(
      truth.height(), truth.width(), [&](std::int32_t r, std::int32_t c) {
        return truth.occupied({r, c}) ? !rng.bernoulli(p_false_negative)
                                      : rng.bernoulli(p_false_positive);
      });
}

}  // namespace qrm
