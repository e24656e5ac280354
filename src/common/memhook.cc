#include "common/memhook.h"

#include <atomic>

namespace ltc {
namespace memhook {

namespace {
std::atomic<bool> g_active{false};

// Per-thread net/peak. Trivially-destructible PODs so the accessors stay
// safe even from allocations during thread teardown; signed because a
// thread may free blocks another thread allocated.
thread_local std::int64_t t_net = 0;
thread_local std::int64_t t_peak = 0;
}  // namespace

std::int64_t ThreadNetBytes() { return t_net; }

std::int64_t ThreadPeakBytes() { return t_peak; }

void ResetThreadPeak() { t_peak = t_net; }

bool Active() { return g_active.load(std::memory_order_relaxed); }

namespace internal {

void RecordAlloc(std::size_t size) {
  t_net += static_cast<std::int64_t>(size);
  if (t_net > t_peak) t_peak = t_net;
}

void RecordFree(std::size_t size) { t_net -= static_cast<std::int64_t>(size); }

void MarkActive() { g_active.store(true, std::memory_order_relaxed); }

}  // namespace internal
}  // namespace memhook
}  // namespace ltc
