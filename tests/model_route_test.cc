// WorkerRoute tests: exact suffix re-optimization cross-checked against a
// brute-force TSP-path enumeration below the exact limit, greedy-vs-exact
// ordering, deterministic progress via AdvanceTo, and the FromStops
// persistence round-trip.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <utility>
#include <vector>

#include "common/random.h"
#include "geo/metric.h"
#include "geo/point.h"
#include "model/worker_route.h"

namespace ltc {
namespace model {
namespace {

/// Brute-force minimum open-path cost from `anchor` through every point.
double BrutePathCost(const geo::Metric& metric, const geo::Point& anchor,
                     std::vector<geo::Point> points) {
  std::vector<std::size_t> order(points.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end());
  double best = std::numeric_limits<double>::infinity();
  do {
    double cost = 0.0;
    geo::Point at = anchor;
    for (const std::size_t i : order) {
      cost += metric.Distance(at, points[i]);
      at = points[i];
    }
    best = std::min(best, cost);
  } while (std::next_permutation(order.begin(), order.end()));
  return best;
}

TEST(WorkerRouteTest, ExactInsertionMatchesBruteForceBelowLimit) {
  const geo::Metric& metric = *geo::EuclideanMetricSingleton();
  Rng rng(5);
  for (int trial = 0; trial < 30; ++trial) {
    const auto n = static_cast<int>(rng.UniformInt(1, 7));
    const geo::Point origin{rng.Uniform(0.0, 50.0), rng.Uniform(0.0, 50.0)};
    WorkerRoute route(origin, /*start_time=*/0.0);
    std::vector<geo::Point> points;
    for (int i = 0; i < n; ++i) {
      points.push_back({rng.Uniform(0.0, 50.0), rng.Uniform(0.0, 50.0)});
      route.Insert(metric, static_cast<TaskId>(i), points.back());
    }
    ASSERT_EQ(route.stops().size(), static_cast<std::size_t>(n));
    EXPECT_NEAR(route.total_cost(), BrutePathCost(metric, origin, points),
                1e-9)
        << "trial " << trial << " n=" << n;
  }
}

TEST(WorkerRouteTest, GreedyInsertionNeverBeatsExact) {
  const geo::Metric& metric = *geo::EuclideanMetricSingleton();
  Rng rng(9);
  for (int trial = 0; trial < 30; ++trial) {
    const auto n = static_cast<int>(rng.UniformInt(2, 7));
    const geo::Point origin{rng.Uniform(0.0, 50.0), rng.Uniform(0.0, 50.0)};
    WorkerRoute exact(origin, 0.0);
    WorkerRoute greedy(origin, 0.0);
    for (int i = 0; i < n; ++i) {
      const geo::Point p{rng.Uniform(0.0, 50.0), rng.Uniform(0.0, 50.0)};
      exact.Insert(metric, static_cast<TaskId>(i), p);
      greedy.Insert(metric, static_cast<TaskId>(i), p, /*exact_limit=*/0);
    }
    EXPECT_LE(exact.total_cost(), greedy.total_cost() + 1e-9);
  }
}

TEST(WorkerRouteTest, InsertReturnsMarginalCost) {
  const geo::Metric& metric = *geo::EuclideanMetricSingleton();
  WorkerRoute route({0.0, 0.0}, 0.0);
  const geo::Point p1{3.0, 4.0};
  double before = route.total_cost();
  double marginal = route.Insert(metric, 1, p1);
  EXPECT_NEAR(marginal, route.total_cost() - before, 1e-12);

  const geo::Point p2{6.0, 8.0};
  before = route.total_cost();
  marginal = route.Insert(metric, 2, p2);
  EXPECT_NEAR(marginal, route.total_cost() - before, 1e-12);
  EXPECT_GE(marginal, 0.0);
}

TEST(WorkerRouteTest, ReachTimesAreCumulativeAtUnitSpeed) {
  const geo::Metric& metric = *geo::EuclideanMetricSingleton();
  WorkerRoute route({0.0, 0.0}, /*start_time=*/10.0);
  route.Insert(metric, 1, {3.0, 4.0});
  route.Insert(metric, 2, {3.0, 10.0});
  ASSERT_EQ(route.stops().size(), 2u);
  double t = 10.0;
  for (const WorkerRoute::Stop& stop : route.stops()) {
    t += stop.leg_cost;
    EXPECT_NEAR(stop.reach_time, t, 1e-12);
  }
}

TEST(WorkerRouteTest, AdvanceToEmitsInOrderAndIsIdempotent) {
  const geo::Metric& metric = *geo::EuclideanMetricSingleton();
  WorkerRoute route({0.0, 0.0}, 0.0);
  route.Insert(metric, 1, {1.0, 0.0});
  route.Insert(metric, 2, {2.0, 0.0});
  route.Insert(metric, 3, {3.0, 0.0});

  std::vector<TaskId> visited;
  route.AdvanceTo(1.5, [&](const WorkerRoute::Stop& s) {
    visited.push_back(s.task);
  });
  EXPECT_EQ(visited, (std::vector<TaskId>{1}));
  EXPECT_EQ(route.visited(), 1u);

  // Non-increasing time: nothing new.
  route.AdvanceTo(1.0, [&](const WorkerRoute::Stop& s) {
    visited.push_back(s.task);
  });
  EXPECT_EQ(visited.size(), 1u);

  route.AdvanceTo(100.0, [&](const WorkerRoute::Stop& s) {
    visited.push_back(s.task);
  });
  EXPECT_EQ(visited, (std::vector<TaskId>{1, 2, 3}));
  EXPECT_TRUE(route.done());
  EXPECT_EQ(route.position().x, 3.0);
}

TEST(WorkerRouteTest, FromStopsRoundTripsLiveRoutes) {
  const geo::Metric& metric = *geo::EuclideanMetricSingleton();
  Rng rng(13);
  for (int trial = 0; trial < 20; ++trial) {
    const geo::Point origin{rng.Uniform(0.0, 20.0), rng.Uniform(0.0, 20.0)};
    WorkerRoute live(origin, rng.Uniform(0.0, 5.0));
    const auto n = static_cast<int>(rng.UniformInt(1, 6));
    for (int i = 0; i < n; ++i) {
      live.Insert(metric, static_cast<TaskId>(i),
                  {rng.Uniform(0.0, 20.0), rng.Uniform(0.0, 20.0)});
    }
    // Advance partway through the route.
    const double cutoff =
        live.start_time() + rng.Uniform(0.0, live.total_cost());
    live.AdvanceTo(cutoff, [](const WorkerRoute::Stop&) {});

    std::vector<std::pair<TaskId, geo::Point>> persisted;
    for (const WorkerRoute::Stop& s : live.stops()) {
      persisted.emplace_back(s.task, s.location);
    }
    const WorkerRoute restored = WorkerRoute::FromStops(
        metric, live.origin(), live.start_time(), persisted, live.visited());

    ASSERT_EQ(restored.stops().size(), live.stops().size());
    EXPECT_EQ(restored.visited(), live.visited());
    for (std::size_t i = 0; i < live.stops().size(); ++i) {
      EXPECT_EQ(restored.stops()[i].task, live.stops()[i].task);
      EXPECT_NEAR(restored.stops()[i].leg_cost, live.stops()[i].leg_cost,
                  1e-12);
      EXPECT_NEAR(restored.stops()[i].reach_time,
                  live.stops()[i].reach_time, 1e-12);
    }
  }
}

}  // namespace
}  // namespace model
}  // namespace ltc
