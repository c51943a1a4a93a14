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

std::uint32_t Rng::poisson_normal(const PoissonRate& rate) noexcept {
  // Normal approximation with continuity correction; adequate for photon
  // counts where lambda is O(100) and exactness of tails is irrelevant.
  const double x = normal(rate.lambda_, rate.sqrt_lambda_);
  return x < 0.5 ? 0U : static_cast<std::uint32_t>(x + 0.5);
}

void Rng::poisson_fill(const PoissonRate& rate, std::span<double> out) noexcept {
  if (out.empty()) return;
  if (!(rate.lambda_ > 0.0 && rate.lambda_ < kKnuthBelow)) {
    for (double& count : out) count = poisson(rate);
    return;
  }
  // Knuth's loop exits after a data-dependent number of uniforms, and that
  // exit mispredicts about once a draw. Here every uniform is one step:
  // while the product is above exp(-lambda) the step multiplies it and
  // counts, otherwise it ends the draw and the uniform starts the next
  // one's product. Both outcomes are computed and the compare mask picks
  // one (lane 0 carries the draw; a `?:` on doubles compiles to a branch).
  using f64x2 = double __attribute__((vector_size(16)));
  const f64x2 stop = {rate.exp_neg_lambda_, rate.exp_neg_lambda_};
  const f64x2 one = {1.0, 1.0};
  f64x2 product = {uniform01(), 0.0};
  f64x2 count = {0.0, 0.0};
  std::size_t i = 0;
  const std::size_t last = out.size() - 1;
  while (i < last) {
    const f64x2 u = {uniform01(), 0.0};
    const auto going = product > stop;  // all-ones lanes while the draw goes on
    out[i] = count[0];                  // final once the draw ends; overwritten until then
    i += static_cast<std::size_t>(1 + going[0]);
    count = going ? count + one : f64x2{0.0, 0.0};
    product = going ? product * u : u;
  }
  // The last draw takes no uniform past its end.
  double tail_product = product[0];
  double tail_count = count[0];
  while (tail_product > rate.exp_neg_lambda_) {
    tail_count += 1.0;
    tail_product *= uniform01();
  }
  out[last] = tail_count;
}

}  // namespace qrm
