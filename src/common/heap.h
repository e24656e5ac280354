// Heap data structures used by the LTC algorithms:
//
//  * BoundedTopK     — the size-limited max-selection heap of Algorithms 1-3
//                      ("maintain size of Q under capacity of w").
//  * IndexedMinHeap  — addressable binary heap with DecreaseKey, used by the
//                      Dijkstra inside the min-cost-flow solver.
//  * LazyMaxTracker  — max of a mutating id window with lazy invalidation,
//                      used by AAM to maintain maxRemain in O(log n)
//                      amortised.

#ifndef LTC_COMMON_HEAP_H_
#define LTC_COMMON_HEAP_H_

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <functional>
#include <queue>
#include <utility>
#include <vector>

#include "common/id_window.h"

namespace ltc {

/// \brief Keeps the k largest (score, id) items seen, with deterministic
/// tie-breaking: equal scores prefer the *smaller* id (matching the paper's
/// Example 3 trace, where ties go to the lower task index).
class BoundedTopK {
 public:
  struct Item {
    double score;
    std::int64_t id;
  };

  explicit BoundedTopK(std::size_t k) : k_(k) {}

  /// Drops all retained items and re-targets the bound; keeps capacity so
  /// one instance can be recycled across many selections.
  void Reset(std::size_t k) {
    k_ = k;
    heap_.clear();
  }

  /// Offers an item; keeps only the top k.
  void Push(double score, std::int64_t id) {
    if (k_ == 0) return;
    if (heap_.size() < k_) {
      heap_.push_back({score, id});
      SiftUp(heap_.size() - 1);
      return;
    }
    // Replace the current minimum if the new item beats it.
    if (Less(heap_[0], {score, id})) {
      heap_[0] = {score, id};
      SiftDown(0);
    }
  }

  bool empty() const { return heap_.empty(); }
  std::size_t size() const { return heap_.size(); }

  /// The *smallest* retained item (the next eviction candidate).
  const Item& PeekMin() const {
    assert(!heap_.empty());
    return heap_[0];
  }

  /// Removes and returns the *smallest* retained item.
  Item PopMin() {
    assert(!heap_.empty());
    Item out = heap_[0];
    heap_[0] = heap_.back();
    heap_.pop_back();
    if (!heap_.empty()) SiftDown(0);
    return out;
  }

  /// Extracts all retained items ordered by descending score (ties: ascending
  /// id). Leaves the heap empty.
  std::vector<Item> TakeDescending() {
    std::vector<Item> out;
    TakeDescending(&out);
    return out;
  }

  /// TakeDescending into `out`, replacing its contents; a buffer reused
  /// across selections allocates only when it grows.
  void TakeDescending(std::vector<Item>* out) {
    out->clear();
    while (!heap_.empty()) out->push_back(PopMin());
    std::reverse(out->begin(), out->end());
  }

 private:
  // Min-heap order over retention priority: a < b means a is evicted first.
  // Larger score wins retention; equal scores: larger id is evicted first.
  static bool Less(const Item& a, const Item& b) {
    if (a.score != b.score) return a.score < b.score;
    return a.id > b.id;
  }

  void SiftUp(std::size_t i) {
    while (i > 0) {
      std::size_t parent = (i - 1) / 2;
      if (!Less(heap_[i], heap_[parent])) break;
      std::swap(heap_[i], heap_[parent]);
      i = parent;
    }
  }

  void SiftDown(std::size_t i) {
    while (true) {
      std::size_t l = 2 * i + 1;
      std::size_t r = l + 1;
      std::size_t smallest = i;
      if (l < heap_.size() && Less(heap_[l], heap_[smallest])) smallest = l;
      if (r < heap_.size() && Less(heap_[r], heap_[smallest])) smallest = r;
      if (smallest == i) break;
      std::swap(heap_[i], heap_[smallest]);
      i = smallest;
    }
  }

  std::size_t k_;
  std::vector<Item> heap_;
};

/// \brief Addressable binary min-heap over node ids 0..n-1 keyed by cost.
///
/// Supports PushOrDecrease (insert or lower an existing key) and PopMin, the
/// two operations Dijkstra needs. O(log n) each, O(n) memory.
template <typename Key>
class IndexedMinHeap {
 public:
  explicit IndexedMinHeap(std::size_t n) : pos_(n, kAbsent) {}

  bool empty() const { return heap_.empty(); }
  std::size_t size() const { return heap_.size(); }

  bool Contains(std::int64_t id) const {
    return pos_[static_cast<std::size_t>(id)] != kAbsent;
  }

  /// Inserts id with the given key, or lowers its key if already present with
  /// a larger key. Returns false if present with a smaller-or-equal key.
  bool PushOrDecrease(std::int64_t id, Key key) {
    auto& p = pos_[static_cast<std::size_t>(id)];
    if (p == kAbsent) {
      p = heap_.size();
      heap_.push_back({key, id});
      SiftUp(heap_.size() - 1);
      return true;
    }
    if (key < heap_[p].first) {
      heap_[p].first = key;
      SiftUp(p);
      return true;
    }
    return false;
  }

  /// The minimum (key, id) without removing it.
  const std::pair<Key, std::int64_t>& PeekMin() const {
    assert(!heap_.empty());
    return heap_[0];
  }

  /// Removes and returns the minimum (key, id).
  std::pair<Key, std::int64_t> PopMin() {
    assert(!heap_.empty());
    auto out = heap_[0];
    Swap(0, heap_.size() - 1);
    heap_.pop_back();
    pos_[static_cast<std::size_t>(out.second)] = kAbsent;
    if (!heap_.empty()) SiftDown(0);
    return out;
  }

  /// Removes all elements but keeps capacity (cheap reuse across Dijkstras).
  void Clear() {
    for (const auto& [key, id] : heap_) {
      pos_[static_cast<std::size_t>(id)] = kAbsent;
    }
    heap_.clear();
  }

  /// Re-sizes the id domain to [0, n) and clears; keeps array capacity so a
  /// heap can be recycled across networks of different sizes.
  void Reset(std::size_t n) {
    heap_.clear();
    pos_.assign(n, kAbsent);
  }

 private:
  static constexpr std::size_t kAbsent = static_cast<std::size_t>(-1);

  void Swap(std::size_t a, std::size_t b) {
    std::swap(heap_[a], heap_[b]);
    pos_[static_cast<std::size_t>(heap_[a].second)] = a;
    pos_[static_cast<std::size_t>(heap_[b].second)] = b;
  }

  void SiftUp(std::size_t i) {
    while (i > 0) {
      std::size_t parent = (i - 1) / 2;
      if (heap_[parent].first <= heap_[i].first) break;
      Swap(i, parent);
      i = parent;
    }
  }

  void SiftDown(std::size_t i) {
    while (true) {
      std::size_t l = 2 * i + 1;
      std::size_t r = l + 1;
      std::size_t smallest = i;
      if (l < heap_.size() && heap_[l].first < heap_[smallest].first)
        smallest = l;
      if (r < heap_.size() && heap_[r].first < heap_[smallest].first)
        smallest = r;
      if (smallest == i) break;
      Swap(i, smallest);
      i = smallest;
    }
  }

  std::vector<std::pair<Key, std::int64_t>> heap_;
  std::vector<std::size_t> pos_;
};

/// \brief Tracks the max of a window of values whose entries only
/// *decrease* over time (remaining demand δ - S[t] in AAM), by id.
/// Entries are re-pushed on change; stale heap tops — an old value, or an
/// id retired from the window — are discarded lazily against the live
/// window, and once the heap holds more than twice the live values (plus a
/// constant) it is rebuilt from the window, so it stays O(values), not
/// O(updates).
class LazyMaxTracker {
 public:
  explicit LazyMaxTracker(const IdWindow<double>* values) : values_(values) {
    Rebuild();
  }

  /// Notifies that the value of `id` changed (decreased), or that `id` was
  /// appended.
  void Update(std::int64_t id) {
    heap_.push({values_->at(id), id});
    if (heap_.size() > 2 * values_->size() + kSlack) Rebuild();
  }

  /// Heap entries held, stale ones included (exposed for tests).
  std::size_t heap_size() const { return heap_.size(); }

  /// Current maximum over live values (0 if the window is empty).
  double Max() {
    while (!heap_.empty()) {
      const auto& [cached, id] = heap_.top();
      if (values_->contains(id) && cached == values_->at(id)) return cached;
      heap_.pop();  // stale entry
    }
    return 0.0;
  }

 private:
  static constexpr std::size_t kSlack = 16;

  /// One entry per live value (O(n) heapify).
  void Rebuild() {
    std::vector<std::pair<double, std::int64_t>> entries;
    entries.reserve(values_->size());
    for (std::int64_t id = values_->first_id(); id < values_->end_id(); ++id) {
      entries.emplace_back(values_->at(id), id);
    }
    heap_ = std::priority_queue<std::pair<double, std::int64_t>>(
        std::less<std::pair<double, std::int64_t>>(), std::move(entries));
  }

  const IdWindow<double>* values_;
  std::priority_queue<std::pair<double, std::int64_t>> heap_;
};

}  // namespace ltc

#endif  // LTC_COMMON_HEAP_H_
