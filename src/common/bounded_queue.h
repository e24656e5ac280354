// Bounded MPSC/MPMC queue with explicit backpressure.
//
// The ingest path between the network threads and the engine loop must never
// grow without bound: beyond the capacity the *producer* is told "no"
// (TryPush returns false) and translates that into a reject-with-status frame
// for the client, instead of blocking the socket thread or buffering
// unboundedly. The consumer side blocks (Pop) until an item arrives or the
// queue is closed and drained.
//
// Plain mutex + condition variable: ingest frames are batched (tens to
// hundreds of events per push), so queue ops are far off the hot path and
// clarity beats lock-free cleverness. high_water() records the maximum
// occupancy ever observed, which the e2e bench reports to prove occupancy
// stays bounded under load. Every shared member is LTC_GUARDED_BY(mu_), so
// a lock-free access slipping in is a -Wthread-safety build break
// (DESIGN.md §14), not a TSan race to reproduce.

#ifndef LTC_COMMON_BOUNDED_QUEUE_H_
#define LTC_COMMON_BOUNDED_QUEUE_H_

#include <cstddef>
#include <deque>
#include <utility>

#include "common/thread_annotations.h"

namespace ltc {

template <typename T>
class BoundedQueue {
 public:
  explicit BoundedQueue(std::size_t capacity) : capacity_(capacity) {}

  BoundedQueue(const BoundedQueue&) = delete;
  BoundedQueue& operator=(const BoundedQueue&) = delete;

  /// Non-blocking push. Returns false — without enqueueing — when the queue
  /// is at capacity or closed; the caller owns the backpressure response.
  bool TryPush(T item) LTC_EXCLUDES(mu_) {
    {
      MutexLock lock(&mu_);
      if (closed_ || items_.size() >= capacity_) return false;
      items_.push_back(std::move(item));
      if (items_.size() > high_water_) high_water_ = items_.size();
    }
    not_empty_.NotifyOne();
    return true;
  }

  /// Blocking pop. Returns false only when the queue is closed and fully
  /// drained — the consumer's termination signal.
  bool Pop(T* out) LTC_EXCLUDES(mu_) {
    MutexLock lock(&mu_);
    while (!closed_ && items_.empty()) not_empty_.Wait(&mu_);
    if (items_.empty()) return false;
    *out = std::move(items_.front());
    items_.pop_front();
    return true;
  }

  /// After Close(), pushes fail and Pop() returns false once drained.
  void Close() LTC_EXCLUDES(mu_) {
    {
      MutexLock lock(&mu_);
      closed_ = true;
    }
    not_empty_.NotifyAll();
  }

  std::size_t size() const LTC_EXCLUDES(mu_) {
    MutexLock lock(&mu_);
    return items_.size();
  }

  std::size_t capacity() const { return capacity_; }

  /// Maximum occupancy observed since construction.
  std::size_t high_water() const LTC_EXCLUDES(mu_) {
    MutexLock lock(&mu_);
    return high_water_;
  }

 private:
  const std::size_t capacity_;
  mutable Mutex mu_;
  CondVar not_empty_;
  std::deque<T> items_ LTC_GUARDED_BY(mu_);
  std::size_t high_water_ LTC_GUARDED_BY(mu_) = 0;
  bool closed_ LTC_GUARDED_BY(mu_) = false;
};

}  // namespace ltc

#endif  // LTC_COMMON_BOUNDED_QUEUE_H_
