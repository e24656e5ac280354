// The values of a window of dense ids (DESIGN.md §8, task and worker
// lifetime).
//
// A streaming pipeline numbers its tasks and workers densely and for
// ever, but holds state only for the ids it may still read: new ids join
// at the back and a prefix of old ones retires from the front. IdWindow<T>
// holds one value per id in [first_id(), end_id()) and is read and written
// by id only. It has no positional operator[], so a position can never
// stand in for an id (tests/common_util_test.cc pins that at compile
// time). Offline callers see a window that never retires.

#ifndef LTC_COMMON_ID_WINDOW_H_
#define LTC_COMMON_ID_WINDOW_H_

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace ltc {

/// \brief The values of ids [first_id(), end_id()), addressed by id.
template <typename T, typename Id = std::int64_t>
class IdWindow {
 public:
  /// An empty window whose next id is `first_id`.
  explicit IdWindow(Id first_id = 0) : first_(first_id) {}

  /// The oldest id held, or the next id while the window is empty.
  Id first_id() const { return first_; }
  /// One past the newest id held.
  Id end_id() const { return first_ + static_cast<Id>(values_.size()); }
  std::size_t size() const { return values_.size(); }
  bool empty() const { return values_.empty(); }
  bool contains(Id id) const { return id >= first_ && id < end_id(); }

  /// The value of `id` (precondition: contains(id)).
  T& at(Id id) {
    assert(contains(id));
    return values_[static_cast<std::size_t>(id - first_)];
  }
  const T& at(Id id) const {
    assert(contains(id));
    return values_[static_cast<std::size_t>(id - first_)];
  }

  /// Appends the value of id end_id().
  void push_back(T value) { values_.push_back(std::move(value)); }
  void reserve(std::size_t n) { values_.reserve(n); }
  /// Extends the window to end at `end`, the new ids holding `fill`; a
  /// no-op when it already reaches `end`.
  void GrowTo(Id end, const T& fill) {
    if (end > end_id()) {
      values_.resize(static_cast<std::size_t>(end - first_), fill);
    }
  }
  /// Drops every id below `id`, which becomes first_id(); a no-op at or
  /// below first_id(). Past end_id() the window empties and starts at
  /// `id`.
  void RetireBefore(Id id) {
    if (id <= first_) return;
    const auto drop = std::min(static_cast<std::size_t>(id - first_),
                               values_.size());
    values_.erase(values_.begin(),
                  values_.begin() + static_cast<std::ptrdiff_t>(drop));
    first_ = id;
  }
  /// Holds `n` copies of `fill`, for ids [first, first + n).
  void Reset(Id first, std::size_t n, const T& fill = T()) {
    first_ = first;
    values_.assign(n, fill);
  }

  /// The values in id order.
  auto begin() { return values_.begin(); }
  auto end() { return values_.end(); }
  auto begin() const { return values_.begin(); }
  auto end() const { return values_.end(); }

 private:
  std::vector<T> values_;
  Id first_;
};

}  // namespace ltc

#endif  // LTC_COMMON_ID_WINDOW_H_
