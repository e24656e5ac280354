// Deterministic, platform-independent random number generation.
//
// std::<distribution> implementations differ across standard libraries, which
// would make workload generation (and therefore every recorded experiment)
// non-reproducible across toolchains. We implement the generator
// (xoshiro256**) and all distributions ourselves.

#ifndef LTC_COMMON_RANDOM_H_
#define LTC_COMMON_RANDOM_H_

#include <cstdint>
#include <vector>

namespace ltc {

/// \brief xoshiro256** PRNG with SplitMix64 seeding.
///
/// Deterministic for a given seed on every platform. Not cryptographic.
class Rng {
 public:
  /// Seeds the four-word state via SplitMix64 from a single 64-bit seed.
  explicit Rng(std::uint64_t seed = 0x9E3779B97F4A7C15ULL);

  /// Next raw 64 random bits.
  std::uint64_t NextU64();

  /// Uniform double in [0, 1).
  double NextDouble();

  /// Uniform double in [lo, hi).
  double Uniform(double lo, double hi);

  /// Uniform integer in [lo, hi] (inclusive). Requires lo <= hi.
  std::int64_t UniformInt(std::int64_t lo, std::int64_t hi);

  /// Standard normal via Box-Muller (cached second value).
  double NextGaussian();

  /// Normal with mean mu and stddev sigma.
  double Gaussian(double mu, double sigma);

  /// Exponential with rate lambda (mean 1/lambda).
  double Exponential(double lambda);

  /// Zipf-like integer in [0, n) with exponent s (s=0 -> uniform). Uses a
  /// precomputed CDF; intended for modest n (generator-internal use).
  std::int64_t Zipf(std::int64_t n, double s);

  /// True with probability p.
  bool Bernoulli(double p);

  /// Fisher-Yates shuffle.
  template <typename T>
  void Shuffle(std::vector<T>* v) {
    for (std::size_t i = v->size(); i > 1; --i) {
      std::size_t j = static_cast<std::size_t>(
          UniformInt(0, static_cast<std::int64_t>(i) - 1));
      std::swap((*v)[i - 1], (*v)[j]);
    }
  }

  /// \brief Complete serializable generator state.
  ///
  /// Covers the four xoshiro words plus the Box-Muller cache; the Zipf CDF
  /// cache is derived from (n, s) on demand and deliberately excluded. A
  /// generator restored from a State produces the exact same output sequence
  /// as the generator it was saved from.
  struct State {
    std::uint64_t s[4];
    double cached_gaussian;
    bool has_cached_gaussian;
  };

  State SaveState() const {
    return State{{s_[0], s_[1], s_[2], s_[3]},
                 cached_gaussian_,
                 has_cached_gaussian_};
  }

  void RestoreState(const State& state) {
    for (int i = 0; i < 4; ++i) s_[i] = state.s[i];
    cached_gaussian_ = state.cached_gaussian;
    has_cached_gaussian_ = state.has_cached_gaussian;
  }

 private:
  std::uint64_t s_[4];
  double cached_gaussian_ = 0.0;
  bool has_cached_gaussian_ = false;

  // Zipf CDF cache for (n, s) reuse.
  std::int64_t zipf_n_ = -1;
  double zipf_s_ = -1.0;
  std::vector<double> zipf_cdf_;
};

}  // namespace ltc

#endif  // LTC_COMMON_RANDOM_H_
