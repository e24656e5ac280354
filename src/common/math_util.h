// Numeric helpers shared by the accuracy model and the algorithms.

#ifndef LTC_COMMON_MATH_UTIL_H_
#define LTC_COMMON_MATH_UTIL_H_

#include <algorithm>
#include <cmath>

namespace ltc {

/// Logistic sigmoid 1 / (1 + e^-x), numerically stable for large |x|.
inline double Sigmoid(double x) {
  if (x >= 0) {
    double z = std::exp(-x);
    return 1.0 / (1.0 + z);
  }
  double z = std::exp(x);
  return z / (1.0 + z);
}

inline double Sqr(double x) { return x * x; }

/// Clamps v into [lo, hi].
inline double Clamp(double v, double lo, double hi) {
  return std::min(hi, std::max(lo, v));
}

/// |a - b| <= tol (absolute tolerance).
inline bool AlmostEqual(double a, double b, double tol = 1e-9) {
  return std::fabs(a - b) <= tol;
}

/// Ceiling of a / b for positive integers.
inline long long CeilDiv(long long a, long long b) { return (a + b - 1) / b; }

}  // namespace ltc

#endif  // LTC_COMMON_MATH_UTIL_H_
