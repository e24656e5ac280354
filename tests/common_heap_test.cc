// Tests for BoundedTopK, IndexedMinHeap and LazyMaxTracker.

#include "common/heap.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/random.h"

namespace ltc {
namespace {

TEST(BoundedTopKTest, KeepsLargestK) {
  BoundedTopK heap(2);
  heap.Push(0.5, 10);
  heap.Push(0.9, 20);
  heap.Push(0.7, 30);
  heap.Push(0.1, 40);
  auto items = heap.TakeDescending();
  ASSERT_EQ(items.size(), 2u);
  EXPECT_DOUBLE_EQ(items[0].score, 0.9);
  EXPECT_EQ(items[0].id, 20);
  EXPECT_DOUBLE_EQ(items[1].score, 0.7);
  EXPECT_EQ(items[1].id, 30);
}

TEST(BoundedTopKTest, TiesPreferSmallerId) {
  // The paper's Example 3: equal Acc* goes to the lower task index.
  BoundedTopK heap(2);
  heap.Push(0.85, 2);  // t3
  heap.Push(0.92, 1);  // t2
  heap.Push(0.85, 0);  // t1
  auto items = heap.TakeDescending();
  ASSERT_EQ(items.size(), 2u);
  EXPECT_EQ(items[0].id, 1);
  EXPECT_EQ(items[1].id, 0);  // t1 beats t3 on the tie
}

TEST(BoundedTopKTest, FewerItemsThanK) {
  BoundedTopK heap(5);
  heap.Push(1.0, 1);
  heap.Push(2.0, 2);
  auto items = heap.TakeDescending();
  ASSERT_EQ(items.size(), 2u);
  EXPECT_EQ(items[0].id, 2);
}

TEST(BoundedTopKTest, ZeroCapacityKeepsNothing) {
  BoundedTopK heap(0);
  heap.Push(1.0, 1);
  EXPECT_TRUE(heap.empty());
  EXPECT_TRUE(heap.TakeDescending().empty());
}

TEST(BoundedTopKTest, MatchesSortOnRandomInput) {
  Rng rng(99);
  for (int round = 0; round < 50; ++round) {
    const std::size_t k = static_cast<std::size_t>(rng.UniformInt(1, 8));
    const int n = static_cast<int>(rng.UniformInt(0, 40));
    BoundedTopK heap(k);
    std::vector<BoundedTopK::Item> all;
    for (int i = 0; i < n; ++i) {
      // Coarse scores force ties.
      const double score = static_cast<double>(rng.UniformInt(0, 5)) / 5.0;
      heap.Push(score, i);
      all.push_back({score, i});
    }
    std::sort(all.begin(), all.end(), [](const auto& a, const auto& b) {
      if (a.score != b.score) return a.score > b.score;
      return a.id < b.id;
    });
    auto got = heap.TakeDescending();
    const std::size_t expect_n = std::min(k, all.size());
    ASSERT_EQ(got.size(), expect_n);
    for (std::size_t i = 0; i < expect_n; ++i) {
      EXPECT_DOUBLE_EQ(got[i].score, all[i].score) << "round " << round;
      EXPECT_EQ(got[i].id, all[i].id) << "round " << round;
    }
  }
}

TEST(IndexedMinHeapTest, PopsInKeyOrder) {
  IndexedMinHeap<int> heap(10);
  heap.PushOrDecrease(3, 30);
  heap.PushOrDecrease(1, 10);
  heap.PushOrDecrease(2, 20);
  auto [k1, id1] = heap.PopMin();
  EXPECT_EQ(k1, 10);
  EXPECT_EQ(id1, 1);
  auto [k2, id2] = heap.PopMin();
  EXPECT_EQ(k2, 20);
  EXPECT_EQ(id2, 2);
  auto [k3, id3] = heap.PopMin();
  EXPECT_EQ(k3, 30);
  EXPECT_EQ(id3, 3);
  EXPECT_TRUE(heap.empty());
}

TEST(IndexedMinHeapTest, DecreaseKeyReordersAndRejectsIncrease) {
  IndexedMinHeap<int> heap(4);
  heap.PushOrDecrease(0, 50);
  heap.PushOrDecrease(1, 40);
  EXPECT_TRUE(heap.PushOrDecrease(0, 10));    // decrease succeeds
  EXPECT_FALSE(heap.PushOrDecrease(1, 100));  // increase rejected
  auto [key, id] = heap.PopMin();
  EXPECT_EQ(id, 0);
  EXPECT_EQ(key, 10);
}

TEST(IndexedMinHeapTest, ContainsAndClear) {
  IndexedMinHeap<int> heap(3);
  heap.PushOrDecrease(2, 5);
  EXPECT_TRUE(heap.Contains(2));
  EXPECT_FALSE(heap.Contains(0));
  heap.Clear();
  EXPECT_TRUE(heap.empty());
  EXPECT_FALSE(heap.Contains(2));
  // Reusable after Clear.
  heap.PushOrDecrease(2, 7);
  EXPECT_EQ(heap.PopMin().first, 7);
}

TEST(IndexedMinHeapTest, RandomizedAgainstSort) {
  Rng rng(7);
  for (int round = 0; round < 20; ++round) {
    const int n = 50;
    IndexedMinHeap<std::int64_t> heap(n);
    std::vector<std::int64_t> best(n, -1);
    for (int op = 0; op < 200; ++op) {
      const auto id = rng.UniformInt(0, n - 1);
      const auto key = rng.UniformInt(0, 1000);
      heap.PushOrDecrease(id, key);
      auto& b = best[static_cast<std::size_t>(id)];
      if (b < 0 || key < b) b = key;
    }
    std::int64_t last = -1;
    while (!heap.empty()) {
      auto [key, id] = heap.PopMin();
      EXPECT_GE(key, last);
      EXPECT_EQ(key, best[static_cast<std::size_t>(id)]);
      last = key;
    }
  }
}

/// A window over ids [0, n) holding `values`.
IdWindow<double> Window(const std::vector<double>& values) {
  IdWindow<double> window;
  for (double v : values) window.push_back(v);
  return window;
}

TEST(LazyMaxTrackerTest, TracksDecreasingValues) {
  IdWindow<double> values = Window({3.0, 5.0, 1.0});
  LazyMaxTracker tracker(&values);
  EXPECT_DOUBLE_EQ(tracker.Max(), 5.0);
  values.at(1) = 2.0;
  tracker.Update(1);
  EXPECT_DOUBLE_EQ(tracker.Max(), 3.0);
  values.at(0) = 0.0;
  tracker.Update(0);
  EXPECT_DOUBLE_EQ(tracker.Max(), 2.0);
  values.at(2) = 0.5;
  tracker.Update(2);
  values.at(1) = 0.0;
  tracker.Update(1);
  EXPECT_DOUBLE_EQ(tracker.Max(), 0.5);
}

// Ids retired from the window leave the maximum at once, though their heap
// entries go only as Max() meets them.
TEST(LazyMaxTrackerTest, RetiredIdsLeaveTheMaximum) {
  IdWindow<double> values = Window({9.0, 7.0, 1.0, 4.0});
  LazyMaxTracker tracker(&values);
  EXPECT_DOUBLE_EQ(tracker.Max(), 9.0);
  values.RetireBefore(2);
  EXPECT_DOUBLE_EQ(tracker.Max(), 4.0);
  values.push_back(6.0);
  tracker.Update(4);
  EXPECT_DOUBLE_EQ(tracker.Max(), 6.0);
  values.RetireBefore(5);
  EXPECT_DOUBLE_EQ(tracker.Max(), 0.0);
}

// One heap entry per Update would grow with the updates (AAM makes one per
// assignment); the tracker rebuilds from the live window instead, so after
// 10^5 updates it still holds at most 2x the live values plus a constant,
// and Max() stays the live maximum throughout.
TEST(LazyMaxTrackerTest, HeapStaysBoundedOverManyUpdates) {
  IdWindow<double> values = Window(std::vector<double>(64, 1000.0));
  LazyMaxTracker tracker(&values);
  std::uint64_t state = 12345;
  std::size_t largest = 0;
  for (int step = 0; step < 100000; ++step) {
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    if (step % 1000 == 999) {
      values.push_back(1000.0);  // a task arriving mid-stream
      tracker.Update(values.end_id() - 1);
    }
    const auto id = static_cast<std::int64_t>((state >> 33) % values.size());
    values.at(id) = std::max(
        0.0, values.at(id) - 0.01 * static_cast<double>((state >> 20) % 7));
    tracker.Update(id);
    largest = std::max(largest, tracker.heap_size());
    if (step % 97 == 0) {
      ASSERT_EQ(tracker.Max(), *std::max_element(values.begin(), values.end()))
          << step;
    }
  }
  EXPECT_LE(largest, 2 * values.size() + 16);
  EXPECT_EQ(tracker.Max(), *std::max_element(values.begin(), values.end()));
}

TEST(LazyMaxTrackerTest, EmptyArrayYieldsZero) {
  IdWindow<double> values;
  LazyMaxTracker tracker(&values);
  EXPECT_DOUBLE_EQ(tracker.Max(), 0.0);
}

}  // namespace
}  // namespace ltc
