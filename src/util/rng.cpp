#include "util/rng.hpp"

#include <cmath>

#include "util/assert.hpp"

namespace qrm {

double Rng::normal(double mean, double stddev) noexcept {
  // Box-Muller transform; draw until u1 is nonzero to avoid log(0).
  double u1 = 0.0;
  do {
    u1 = uniform01();
  } while (u1 <= 0.0);
  const double u2 = uniform01();
  const double radius = std::sqrt(-2.0 * std::log(u1));
  const double theta = 2.0 * 3.14159265358979323846 * u2;
  return mean + stddev * radius * std::cos(theta);
}

PoissonRate::PoissonRate(double lambda) : lambda_(lambda) {
  QRM_EXPECTS_MSG(lambda >= 0.0 && lambda <= kMax,
                  "a Poisson rate must be finite, non-negative and at most 2^31");
  exp_neg_lambda_ = std::exp(-lambda);
  sqrt_lambda_ = std::sqrt(lambda);
}

std::uint32_t Rng::poisson(const PoissonRate& rate) noexcept {
  if (rate.lambda_ <= 0.0) return 0;
  if (rate.lambda_ < 30.0) {
    // Knuth: multiply uniforms until the product drops below exp(-lambda).
    std::uint32_t k = 0;
    double product = uniform01();
    while (product > rate.exp_neg_lambda_) {
      ++k;
      product *= uniform01();
    }
    return k;
  }
  // Normal approximation with continuity correction; adequate for photon
  // counts where lambda is O(100) and exactness of tails is irrelevant.
  const double x = normal(rate.lambda_, rate.sqrt_lambda_);
  return x < 0.5 ? 0U : static_cast<std::uint32_t>(x + 0.5);
}

}  // namespace qrm
