#pragma once
/// \file rng.hpp
/// Deterministic, seedable random number generation.
///
/// All stochastic parts of the library (atom loading, photon noise, workload
/// generators) draw from this generator so that every experiment is exactly
/// reproducible from a 64-bit seed. The implementation is xoshiro256**
/// seeded through SplitMix64, which is fast, high quality, and has no global
/// state (Core Guidelines: avoid non-const global variables).

#include <array>
#include <cstdint>
#include <span>

namespace qrm {

/// SplitMix64 step; used to expand a user seed into xoshiro state.
[[nodiscard]] constexpr std::uint64_t splitmix64(std::uint64_t& state) noexcept {
  state += 0x9E3779B97F4A7C15ULL;
  std::uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

/// Derive the seed of an independent child stream from a master seed.
///
/// SplitMix-style: the stream index is hashed through SplitMix64 and folded
/// into the master, so (a) nearby indices give uncorrelated streams, (b) the
/// derivation depends only on (master, stream) — never on how many sibling
/// streams exist or which thread asks first — which is what makes batch
/// results bit-identical regardless of worker count, and (c) collisions
/// between derived seeds, or with the master itself, are only probabilistic
/// (~2^-64 per pair, birthday-bounded) — callers needing hard domain
/// separation should derive through distinct domain tags rather than reuse
/// a master directly as a sibling stream.
[[nodiscard]] constexpr std::uint64_t derive_seed(std::uint64_t master,
                                                  std::uint64_t stream) noexcept {
  std::uint64_t index_state = stream + 0xD1B54A32D192ED03ULL;
  std::uint64_t mixed = master ^ splitmix64(index_state);
  return splitmix64(mixed);
}

/// A Poisson rate with the transcendental terms of its draw computed once:
/// exp(-lambda), Knuth's stopping product, and sqrt(lambda), the normal
/// branch's spread. A caller drawing many counts at one rate builds it once.
class PoissonRate {
 public:
  /// Largest accepted rate, 2^31. A normal draw lands within 8.6 standard
  /// deviations of lambda (uniform01's 2^-53 floor caps Box-Muller's radius),
  /// so no count exceeds 2^31 + 4e5, and every count fits uint32_t.
  static constexpr double kMax = 2147483648.0;

  /// Throws PreconditionError unless 0 <= lambda <= kMax (so never NaN).
  explicit PoissonRate(double lambda);

 private:
  friend class Rng;
  double lambda_ = 0.0;
  double exp_neg_lambda_ = 1.0;
  double sqrt_lambda_ = 0.0;
};

/// xoshiro256** pseudo-random generator (Blackman & Vigna).
class Rng {
 public:
  using result_type = std::uint64_t;

  /// Seed deterministically; distinct seeds give independent-looking streams.
  explicit Rng(std::uint64_t seed = 0x5EEDULL) noexcept { reseed(seed); }

  void reseed(std::uint64_t seed) noexcept {
    std::uint64_t sm = seed;
    for (auto& s : state_) s = splitmix64(sm);
  }

  /// UniformRandomBitGenerator interface.
  static constexpr result_type min() noexcept { return 0; }
  static constexpr result_type max() noexcept { return ~std::uint64_t{0}; }
  result_type operator()() noexcept { return next_u64(); }

  std::uint64_t next_u64() noexcept {
    const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
    const std::uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = rotl(state_[3], 45);
    return result;
  }

  /// Uniform integer in [0, n). Precondition handled gracefully: n==0 -> 0.
  std::uint32_t uniform_below(std::uint32_t n) noexcept {
    if (n == 0) return 0;
    // Lemire's unbiased multiply-shift rejection method.
    std::uint64_t x = next_u64() & 0xFFFFFFFFULL;
    std::uint64_t m = x * n;
    auto lo = static_cast<std::uint32_t>(m);
    if (lo < n) {
      const std::uint32_t threshold = (0U - n) % n;
      while (lo < threshold) {
        x = next_u64() & 0xFFFFFFFFULL;
        m = x * n;
        lo = static_cast<std::uint32_t>(m);
      }
    }
    return static_cast<std::uint32_t>(m >> 32);
  }

  /// Uniform double in [0, 1).
  double uniform01() noexcept {
    return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
  }

  /// Bernoulli trial with success probability p (clamped to [0,1]).
  bool bernoulli(double p) noexcept { return uniform01() < p; }

  /// Standard normal via Box-Muller (one value per call; simple and exact).
  double normal(double mean = 0.0, double stddev = 1.0) noexcept;

  /// Poisson-distributed count. Uses Knuth's method for small lambda and a
  /// normal approximation for large lambda (adequate for photon statistics).
  /// Knuth's loop is defined here so it inlines into per-draw callers such
  /// as the render's PSF taps.
  std::uint32_t poisson(const PoissonRate& rate) noexcept {
    if (rate.lambda_ <= 0.0) return 0;
    if (rate.lambda_ >= kKnuthBelow) return poisson_normal(rate);
    // Knuth: multiply uniforms until the product drops below exp(-lambda).
    std::uint32_t k = 0;
    double product = uniform01();
    while (product > rate.exp_neg_lambda_) {
      ++k;
      product *= uniform01();
    }
    return k;
  }

  /// out.size() Poisson counts at one rate: the same uniforms, products and
  /// counts as that many poisson() calls, so the stream ends where theirs
  /// would. Knuth's rates run without a branch per uniform.
  void poisson_fill(const PoissonRate& rate, std::span<double> out) noexcept;

 private:
  /// Rates from here up take the normal approximation.
  static constexpr double kKnuthBelow = 30.0;
  std::uint32_t poisson_normal(const PoissonRate& rate) noexcept;

  static constexpr std::uint64_t rotl(std::uint64_t x, int k) noexcept {
    return (x << k) | (x >> (64 - k));
  }
  std::array<std::uint64_t, 4> state_{};
};

}  // namespace qrm
