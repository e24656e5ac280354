// Tests for the byte-exact allocation hook. This binary (alone among the
// tests) links ltc_memhook, so the global operator new/delete overrides are
// active here.
//
// Note: gtest itself allocates, so the assertions compare deltas with
// slack rather than exact equality, and pointers escape through a volatile
// global so the optimiser cannot elide new/delete pairs (C++14 allocation
// elision). Every counter is the calling thread's.

#include "common/memhook.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <thread>
#include <vector>

namespace ltc {
namespace {

// Escape hatch that keeps allocations observable.
volatile void* g_sink = nullptr;

constexpr std::int64_t kSlack = 64 * 1024;  // gtest bookkeeping noise

TEST(MemhookTest, ActiveInThisBinary) { EXPECT_TRUE(memhook::Active()); }

TEST(MemhookTest, EveryOperatorFormBalances) {
  const std::int64_t before = memhook::ThreadNetBytes();
  auto* v = new std::vector<char>(1 << 16);
  g_sink = v->data();
  std::int64_t during = memhook::ThreadNetBytes();
  EXPECT_GE(during, before + (1 << 16));
  delete v;
  // Everything allocated between the probes was released.
  EXPECT_LE(memhook::ThreadNetBytes(), during - (1 << 16));

  void* p = ::operator new(1 << 16, std::nothrow);
  ASSERT_NE(p, nullptr);
  g_sink = p;
  during = memhook::ThreadNetBytes();
  EXPECT_GE(during, before + (1 << 16));
  ::operator delete(p, std::nothrow);
  EXPECT_LE(memhook::ThreadNetBytes(), during - (1 << 16));
  EXPECT_LT(memhook::ThreadNetBytes(), before + kSlack);
}

TEST(MemhookTest, ThreadPeakTracksOwnAllocations) {
  memhook::ResetThreadPeak();
  const std::int64_t baseline = memhook::ThreadNetBytes();
  {
    std::vector<char> buf(1 << 20);
    g_sink = buf.data();
    EXPECT_GE(memhook::ThreadNetBytes(), baseline + (1 << 20));
  }
  // Peak persists past the free; net returns to the baseline (all the
  // allocations above were made and freed on this thread).
  EXPECT_GE(memhook::ThreadPeakBytes(), baseline + (1 << 20));
  EXPECT_LT(memhook::ThreadNetBytes(), baseline + (1 << 16));
  memhook::ResetThreadPeak();
  EXPECT_LE(memhook::ThreadPeakBytes(),
            memhook::ThreadNetBytes() + (1 << 10));
}

TEST(MemhookTest, ThreadCountersAreIndependentAcrossThreads) {
  memhook::ResetThreadPeak();
  const std::int64_t peak_before = memhook::ThreadPeakBytes();
  std::int64_t other_delta = 0;
  std::thread worker([&other_delta] {
    memhook::ResetThreadPeak();
    const std::int64_t base = memhook::ThreadNetBytes();
    std::vector<char> buf(1 << 20);
    g_sink = buf.data();
    other_delta = memhook::ThreadPeakBytes() - base;
  });
  worker.join();
  // The worker saw its own MiB; this thread's peak did not move with it.
  EXPECT_GE(other_delta, 1 << 20);
  EXPECT_LE(memhook::ThreadPeakBytes(), peak_before + (1 << 16));
}

TEST(MemhookTest, PeakMonotoneUnderChurn) {
  memhook::ResetThreadPeak();
  const std::int64_t baseline = memhook::ThreadNetBytes();
  std::int64_t last_peak = memhook::ThreadPeakBytes();
  for (int i = 0; i < 10; ++i) {
    std::vector<char> buf(static_cast<std::size_t>(1) << (10 + i));
    g_sink = buf.data();
    const std::int64_t peak = memhook::ThreadPeakBytes();
    EXPECT_GE(peak, last_peak);
    last_peak = peak;
  }
  EXPECT_GE(last_peak, baseline + (std::int64_t{1} << 19));
}

}  // namespace
}  // namespace ltc
