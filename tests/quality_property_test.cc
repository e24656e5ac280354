// Cross-cutting property sweeps: quality-threshold monotonicity, the
// relationship between per-task completion statistics and the MinMax
// objective, and bound consistency across the epsilon grid.

#include <gtest/gtest.h>

#include <limits>
#include <memory>

#include "algo/registry.h"
#include "gen/synthetic.h"
#include "model/eligibility.h"
#include "model/quality.h"
#include "oracles/arrangement_stats.h"
#include "sim/engine.h"

namespace ltc {
namespace {

TEST(QualityPropertyTest, DeltaMonotoneDecreasingInEpsilon) {
  double prev = std::numeric_limits<double>::infinity();
  for (double eps = 0.02; eps < 0.9; eps += 0.02) {
    auto delta = model::DeltaFromEpsilon(eps);
    ASSERT_TRUE(delta.ok());
    EXPECT_LT(delta.value(), prev) << "eps=" << eps;
    EXPECT_GT(delta.value(), 0.0);
    prev = delta.value();
  }
}

TEST(QualityPropertyTest, TheoremBoundsScaleLinearlyInTasks) {
  const double delta = 4.6;
  double prev_lower = 0.0;
  for (std::int64_t tasks = 100; tasks <= 1000; tasks += 100) {
    const auto bounds = model::TheoremTwoBounds(tasks, delta, 6);
    EXPECT_GT(bounds.lower, prev_lower);
    EXPECT_GT(bounds.upper, bounds.lower);
    // Upper/lower ratio is the constant 10 + O(1/delta) of Theorem 2.
    EXPECT_NEAR(bounds.upper / bounds.lower, 10.0, 1.0);
    prev_lower = bounds.lower;
  }
}

class StatsVsObjectiveTest
    : public ::testing::TestWithParam<std::tuple<const char*, int>> {};

TEST_P(StatsVsObjectiveTest, MaxCompletionIndexMatchesLatency) {
  const auto [name, seed] = GetParam();
  gen::SyntheticConfig cfg;
  cfg.num_tasks = 15;
  cfg.num_workers = 2500;
  cfg.grid_side = 140.0;
  cfg.seed = static_cast<std::uint64_t>(seed + 300);
  auto instance = gen::GenerateSynthetic(cfg);
  ASSERT_TRUE(instance.ok());
  auto index = model::EligibilityIndex::Build(&instance.value());
  ASSERT_TRUE(index.ok());

  auto scheduler = algo::MakeOnlineScheduler(name, 11);
  ASSERT_TRUE(scheduler.ok());
  algo::DriveOnline(*instance, *index, scheduler->get()).status().CheckOK();
  if (!(*scheduler)->arrangement().AllCompleted()) {
    GTEST_SKIP() << "instance not completable for this seed";
  }
  auto stats =
      sim::ComputeArrangementStats(*instance, (*scheduler)->arrangement());
  ASSERT_TRUE(stats.ok());
  // For every online scheduler the run stops at the arrival that completes
  // the last task, so the max per-task completion index IS the objective.
  EXPECT_EQ(stats->max, (*scheduler)->arrangement().MaxWorkerIndex()) << name;
  EXPECT_EQ(stats->completed_tasks, instance->num_tasks());
  // Distribution sanity: mean <= p95 <= max, median <= p95.
  EXPECT_LE(stats->mean, static_cast<double>(stats->max));
  EXPECT_LE(stats->median, stats->p95);
  EXPECT_LE(stats->p95, stats->max);
}

INSTANTIATE_TEST_SUITE_P(
    OnlineRoster, StatsVsObjectiveTest,
    ::testing::Combine(::testing::Values("LAF", "AAM", "Random", "LGF-only",
                                         "LRF-only"),
                       ::testing::Values(1, 2, 3)));

TEST(StatsVsObjectiveTest, OfflineBatchingCanOvershootCompletion) {
  // MCF-LTC commits whole batches: its MinMax latency may exceed the max
  // per-task completion index, but never undershoot it.
  gen::SyntheticConfig cfg;
  cfg.num_tasks = 15;
  cfg.num_workers = 2500;
  cfg.grid_side = 140.0;
  cfg.seed = 42;
  auto instance = gen::GenerateSynthetic(cfg);
  ASSERT_TRUE(instance.ok());
  auto index = model::EligibilityIndex::Build(&instance.value());
  ASSERT_TRUE(index.ok());
  auto scheduler = algo::MakeOfflineScheduler("MCF-LTC");
  ASSERT_TRUE(scheduler.ok());
  auto result = (*scheduler)->Run(*instance, *index);
  ASSERT_TRUE(result.ok());
  ASSERT_TRUE(result->completed);
  auto stats = sim::ComputeArrangementStats(*instance, result->arrangement);
  ASSERT_TRUE(stats.ok());
  EXPECT_GE(result->latency, stats->max);
}

TEST(QualityPropertyTest, EpsilonSweepKeepsLatencyOrderingConsistent) {
  // On one fixed instance family, every algorithm's latency is monotone
  // non-increasing in epsilon (weaker quality -> never more workers).
  for (const char* name : {"LAF", "AAM"}) {
    std::int64_t prev = std::numeric_limits<std::int64_t>::max();
    for (double eps : {0.06, 0.10, 0.14, 0.18, 0.22}) {
      gen::SyntheticConfig cfg;
      cfg.num_tasks = 15;
      cfg.num_workers = 2500;
      cfg.grid_side = 140.0;
      cfg.epsilon = eps;
      cfg.seed = 77;  // same stream; only delta changes
      auto instance = gen::GenerateSynthetic(cfg);
      ASSERT_TRUE(instance.ok());
      auto index = model::EligibilityIndex::Build(&instance.value());
      ASSERT_TRUE(index.ok());
      auto metrics = sim::RunAlgorithm(name, *instance, *index);
      ASSERT_TRUE(metrics.ok());
      ASSERT_TRUE(metrics->completed);
      EXPECT_LE(metrics->latency, prev) << name << " eps=" << eps;
      prev = metrics->latency;
    }
  }
}

}  // namespace
}  // namespace ltc
