#include "common/random.h"

#include <cassert>
#include <cmath>

namespace ltc {

namespace {
inline std::uint64_t Rotl(std::uint64_t x, int k) {
  return (x << k) | (x >> (64 - k));
}

inline std::uint64_t SplitMix64(std::uint64_t* state) {
  std::uint64_t z = (*state += 0x9E3779B97F4A7C15ULL);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}
}  // namespace

Rng::Rng(std::uint64_t seed) {
  std::uint64_t sm = seed;
  for (auto& word : s_) word = SplitMix64(&sm);
}

std::uint64_t Rng::NextU64() {
  const std::uint64_t result = Rotl(s_[1] * 5, 7) * 9;
  const std::uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = Rotl(s_[3], 45);
  return result;
}

double Rng::NextDouble() {
  // 53 high-quality bits -> [0, 1).
  return static_cast<double>(NextU64() >> 11) * 0x1.0p-53;
}

double Rng::Uniform(double lo, double hi) {
  return lo + (hi - lo) * NextDouble();
}

std::int64_t Rng::UniformInt(std::int64_t lo, std::int64_t hi) {
  assert(lo <= hi);
  const std::uint64_t range = static_cast<std::uint64_t>(hi - lo) + 1;
  if (range == 0) return static_cast<std::int64_t>(NextU64());  // full range
  // Debiased modulo (Lemire-style rejection).
  const std::uint64_t limit = -range % range;  // (2^64 - range) % range
  std::uint64_t r;
  do {
    r = NextU64();
  } while (r < limit);
  return lo + static_cast<std::int64_t>(r % range);
}

double Rng::NextGaussian() {
  if (has_cached_gaussian_) {
    has_cached_gaussian_ = false;
    return cached_gaussian_;
  }
  // Box-Muller with rejection of u1 == 0.
  double u1;
  do {
    u1 = NextDouble();
  } while (u1 <= 1e-300);
  const double u2 = NextDouble();
  const double r = std::sqrt(-2.0 * std::log(u1));
  const double theta = 2.0 * M_PI * u2;
  cached_gaussian_ = r * std::sin(theta);
  has_cached_gaussian_ = true;
  return r * std::cos(theta);
}

double Rng::Gaussian(double mu, double sigma) {
  return mu + sigma * NextGaussian();
}

double Rng::Exponential(double lambda) {
  double u;
  do {
    u = NextDouble();
  } while (u <= 1e-300);
  return -std::log(u) / lambda;
}

std::int64_t Rng::Zipf(std::int64_t n, double s) {
  assert(n > 0);
  if (zipf_n_ != n || zipf_s_ != s) {
    zipf_n_ = n;
    zipf_s_ = s;
    zipf_cdf_.resize(static_cast<std::size_t>(n));
    double total = 0.0;
    for (std::int64_t i = 0; i < n; ++i) {
      total += 1.0 / std::pow(static_cast<double>(i + 1), s);
      zipf_cdf_[static_cast<std::size_t>(i)] = total;
    }
    for (auto& v : zipf_cdf_) v /= total;
  }
  const double u = NextDouble();
  // Binary search for the first CDF entry >= u.
  std::size_t lo = 0;
  std::size_t hi = zipf_cdf_.size() - 1;
  while (lo < hi) {
    const std::size_t mid = (lo + hi) / 2;
    if (zipf_cdf_[mid] >= u) {
      hi = mid;
    } else {
      lo = mid + 1;
    }
  }
  return static_cast<std::int64_t>(lo);
}

bool Rng::Bernoulli(double p) { return NextDouble() < p; }

}  // namespace ltc
