#include "util/stats.hpp"

#include <algorithm>
#include <cmath>
#include <vector>

#include "util/assert.hpp"

namespace qrm::stats {

double mean(std::span<const double> xs) noexcept {
  if (xs.empty()) return 0.0;
  double sum = 0.0;
  for (const double x : xs) sum += x;
  return sum / static_cast<double>(xs.size());
}

double variance(std::span<const double> xs) noexcept {
  if (xs.size() < 2) return 0.0;
  const double m = mean(xs);
  double acc = 0.0;
  for (const double x : xs) acc += (x - m) * (x - m);
  return acc / static_cast<double>(xs.size() - 1);
}

double stddev(std::span<const double> xs) noexcept { return std::sqrt(variance(xs)); }

SortedSample::SortedSample(std::span<const double> xs) : sorted_(xs.begin(), xs.end()) {
  std::sort(sorted_.begin(), sorted_.end());
}

double SortedSample::percentile(double p) const {
  QRM_EXPECTS(!sorted_.empty());
  QRM_EXPECTS(p >= 0.0 && p <= 100.0);
  const double rank = p / 100.0 * static_cast<double>(sorted_.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, sorted_.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return sorted_[lo] * (1.0 - frac) + sorted_[hi] * frac;
}

double SortedSample::min() const {
  QRM_EXPECTS(!sorted_.empty());
  return sorted_.front();
}

double SortedSample::max() const {
  QRM_EXPECTS(!sorted_.empty());
  return sorted_.back();
}

LinearFit linear_fit(std::span<const double> xs, std::span<const double> ys) {
  QRM_EXPECTS(xs.size() == ys.size());
  QRM_EXPECTS(xs.size() >= 2);
  const double mx = mean(xs);
  const double my = mean(ys);
  double sxx = 0.0;
  double sxy = 0.0;
  double syy = 0.0;
  for (std::size_t i = 0; i < xs.size(); ++i) {
    const double dx = xs[i] - mx;
    const double dy = ys[i] - my;
    sxx += dx * dx;
    sxy += dx * dy;
    syy += dy * dy;
  }
  LinearFit fit;
  fit.slope = sxx > 0.0 ? sxy / sxx : 0.0;
  fit.intercept = my - fit.slope * mx;
  fit.r_squared = (sxx > 0.0 && syy > 0.0) ? (sxy * sxy) / (sxx * syy) : 1.0;
  return fit;
}

}  // namespace qrm::stats
