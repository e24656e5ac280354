// Byte-exact heap accounting for the memory rows of Fig. 3i-l / Fig. 4i-l.
//
// The counters in this header are always available (they just read
// thread-locals). They only move when the translation unit
// `memhook_impl.cc` — which overrides global operator new/delete — is linked
// into the binary. Bench executables link it; the core library and most
// tests do not, so library users pay nothing.
//
// The counters are per thread (DESIGN.md §7), so concurrent measured runs
// (exp::SweepRunner cells) each see only their own allocations instead of
// racing over one global high-water mark.

#ifndef LTC_COMMON_MEMHOOK_H_
#define LTC_COMMON_MEMHOOK_H_

#include <cstddef>
#include <cstdint>

namespace ltc {
namespace memhook {

/// Net bytes (allocs minus frees) recorded on the calling thread. May be
/// negative: a thread that frees memory allocated elsewhere is credited
/// with the release (see DESIGN.md §7 on cross-thread frees).
std::int64_t ThreadNetBytes();

/// High-water mark of ThreadNetBytes() since the last ResetThreadPeak()
/// on this thread.
std::int64_t ThreadPeakBytes();

/// Resets the calling thread's peak to its current net level (call before
/// a measured run on that thread).
void ResetThreadPeak();

/// True when the overriding allocator is linked into this binary.
bool Active();

namespace internal {
/// Called by the operator new/delete overrides in memhook_impl.cc.
void RecordAlloc(std::size_t size);
void RecordFree(std::size_t size);
void MarkActive();
}  // namespace internal

}  // namespace memhook
}  // namespace ltc

#endif  // LTC_COMMON_MEMHOOK_H_
