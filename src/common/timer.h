// Wall-clock stopwatch used for the runtime rows of Fig. 3e-h / Fig. 4e-h.

#ifndef LTC_COMMON_TIMER_H_
#define LTC_COMMON_TIMER_H_

#include <chrono>

namespace ltc {

/// Monotonic stopwatch. Starts running on construction.
class Stopwatch {
 public:
  Stopwatch() : start_(Clock::now()) {}

  /// Seconds elapsed since construction.
  double ElapsedSeconds() const {
    return std::chrono::duration<double>(Clock::now() - start_).count();
  }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
};

}  // namespace ltc

#endif  // LTC_COMMON_TIMER_H_
