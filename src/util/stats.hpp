#pragma once
/// \file stats.hpp
/// Small descriptive-statistics helpers used by benches and tests
/// (seed-averaged latencies, resource-trend fits, detection error rates).

#include <cstddef>
#include <span>
#include <vector>

namespace qrm::stats {

/// Arithmetic mean; 0 for an empty span.
[[nodiscard]] double mean(std::span<const double> xs) noexcept;

/// Unbiased sample variance (n-1 denominator); 0 for n < 2.
[[nodiscard]] double variance(std::span<const double> xs) noexcept;

/// Sample standard deviation.
[[nodiscard]] double stddev(std::span<const double> xs) noexcept;

/// A sample copied and sorted once, answering any number of percentile /
/// extremum queries in O(1) each. Use for multi-percentile summaries
/// (p50/p90/p99/max).
class SortedSample {
 public:
  /// Copies and sorts `xs`. An empty sample is valid; queries on it throw
  /// (an empty sample has no extrema; returning ±infinity would leak into
  /// CSV/bench summaries).
  explicit SortedSample(std::span<const double> xs);

  [[nodiscard]] std::size_t size() const noexcept { return sorted_.size(); }
  [[nodiscard]] bool empty() const noexcept { return sorted_.empty(); }

  /// Linear-interpolated percentile, p in [0,100]. Precondition: !empty().
  [[nodiscard]] double percentile(double p) const;
  /// Precondition: !empty().
  [[nodiscard]] double min() const;
  [[nodiscard]] double max() const;
  [[nodiscard]] double median() const { return percentile(50.0); }

 private:
  std::vector<double> sorted_;
};

/// Least-squares fit y = slope*x + intercept.
struct LinearFit {
  double slope = 0.0;
  double intercept = 0.0;
  double r_squared = 0.0;
};
[[nodiscard]] LinearFit linear_fit(std::span<const double> xs, std::span<const double> ys);

}  // namespace qrm::stats
