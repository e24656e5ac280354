// Cross-module property tests: every algorithm, over a grid of generated
// instances, must (a) produce a constraint-valid arrangement, (b) respect
// the Theorem-2 latency bounds, (c) never beat the exhaustive optimum on
// tiny instances, and (d) be deterministic for a fixed seed.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "algo/exhaustive.h"
#include "algo/registry.h"
#include "gen/foursquare.h"
#include "gen/synthetic.h"
#include "model/arrangement.h"
#include "model/eligibility.h"
#include "model/quality.h"
#include "model/voting.h"
#include "oracles/paper_tables.h"
#include "sim/engine.h"

namespace ltc {
namespace {

struct Built {
  model::ProblemInstance instance;
  std::unique_ptr<model::EligibilityIndex> index;
};

Built Build(model::ProblemInstance instance) {
  Built b{std::move(instance), nullptr};
  auto index = model::EligibilityIndex::Build(&b.instance);
  index.status().CheckOK();
  b.index =
      std::make_unique<model::EligibilityIndex>(std::move(index).value());
  return b;
}

// ---- Parameterised sweep over (K, epsilon, seed) on synthetic workloads ----

using SweepParam = std::tuple<int, double, int>;  // K, epsilon, seed

class SyntheticSweepTest : public ::testing::TestWithParam<SweepParam> {
 protected:
  Built MakeInstance() const {
    const auto [k, epsilon, seed] = GetParam();
    gen::SyntheticConfig cfg;
    cfg.num_tasks = 15;
    cfg.num_workers = 3000;
    cfg.grid_side = 150.0;  // paper-like worker density around each task
    cfg.capacity = k;
    cfg.epsilon = epsilon;
    cfg.seed = static_cast<std::uint64_t>(seed);
    auto instance = gen::GenerateSynthetic(cfg);
    instance.status().CheckOK();
    return Build(std::move(instance).value());
  }
};

TEST_P(SyntheticSweepTest, AllAlgorithmsProduceValidCompleteArrangements) {
  Built b = MakeInstance();
  const auto bounds = model::TheoremTwoBounds(
      b.instance.num_tasks(), b.instance.Delta(), b.instance.capacity);
  for (const auto& name : algo::StandardAlgorithms()) {
    auto metrics = sim::RunAlgorithm(name, b.instance, *b.index);
    ASSERT_TRUE(metrics.ok()) << name << ": " << metrics.status().ToString();
    ASSERT_TRUE(metrics->completed)
        << name << " failed to complete: " << b.instance.Summary();
    // Lower bound of Theorem 2 (holds for any feasible arrangement).
    EXPECT_GE(static_cast<double>(metrics->latency),
              bounds.lower - 1e-9)
        << name;
    EXPECT_LE(metrics->latency, b.instance.num_workers()) << name;
    // Quality: accumulated Acc* per task really reached delta — checked by
    // the engine's validator (would have errored otherwise).
  }
}

TEST_P(SyntheticSweepTest, DeterministicAcrossRepeatedRuns) {
  Built b = MakeInstance();
  for (const auto& name : algo::StandardAlgorithms()) {
    auto m1 = sim::RunAlgorithm(name, b.instance, *b.index);
    auto m2 = sim::RunAlgorithm(name, b.instance, *b.index);
    ASSERT_TRUE(m1.ok());
    ASSERT_TRUE(m2.ok());
    EXPECT_EQ(m1->latency, m2->latency) << name;
    EXPECT_EQ(m1->stats.assignments, m2->stats.assignments) << name;
  }
}

TEST_P(SyntheticSweepTest, CompletedTasksPassVotingSanity) {
  Built b = MakeInstance();
  auto metrics = sim::RunAlgorithm("AAM", b.instance, *b.index);
  ASSERT_TRUE(metrics.ok());
  ASSERT_TRUE(metrics->completed);
  // Re-run AAM to obtain the arrangement (engine reports metrics only).
  auto scheduler = algo::MakeOnlineScheduler("AAM", 1);
  ASSERT_TRUE(scheduler.ok());
  algo::DriveOnline(b.instance, *b.index, scheduler->get()).status().CheckOK();
  auto outcome = model::SimulateVoting(b.instance, (*scheduler)->arrangement(),
                                       400, 17);
  ASSERT_TRUE(outcome.ok());
  // Hoeffding guarantee: per-task error below epsilon. Empirically the rate
  // is far below; allow 2x slack for simulation noise at 400 trials.
  EXPECT_LT(outcome->empirical_error_rate, 2.0 * b.instance.epsilon);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, SyntheticSweepTest,
    ::testing::Combine(::testing::Values(2, 4, 6),          // K
                       ::testing::Values(0.06, 0.14, 0.22),  // epsilon
                       ::testing::Values(1, 2)));            // seed

// ---- Online algorithms never beat the exhaustive optimum ----

class OptimalityTest : public ::testing::TestWithParam<int> {};

TEST_P(OptimalityTest, NoAlgorithmBeatsExhaustive) {
  gen::SyntheticConfig cfg;
  cfg.num_tasks = 3;
  cfg.num_workers = 10;
  cfg.grid_side = 25.0;
  cfg.capacity = 2;
  cfg.epsilon = 0.2;
  cfg.seed = static_cast<std::uint64_t>(GetParam());
  auto instance = gen::GenerateSynthetic(cfg);
  ASSERT_TRUE(instance.ok());
  Built b = Build(std::move(instance).value());

  algo::Exhaustive exhaustive;
  auto optimal = exhaustive.Run(b.instance, *b.index);
  ASSERT_TRUE(optimal.ok()) << optimal.status().ToString();
  if (!optimal->completed) {
    // Infeasible instance: every algorithm must also fail to complete.
    for (const auto& name : algo::StandardAlgorithms()) {
      auto metrics = sim::RunAlgorithm(name, b.instance, *b.index);
      ASSERT_TRUE(metrics.ok()) << name;
      EXPECT_FALSE(metrics->completed) << name;
    }
    return;
  }
  for (const auto& name : algo::StandardAlgorithms()) {
    auto metrics = sim::RunAlgorithm(name, b.instance, *b.index);
    ASSERT_TRUE(metrics.ok()) << name;
    if (metrics->completed) {
      EXPECT_GE(metrics->latency, optimal->latency)
          << name << " beat the optimum on " << b.instance.Summary();
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, OptimalityTest, ::testing::Range(0, 12));

// ---- Monotonicity: a larger tolerable error rate never hurts ----

TEST(MonotonicityTest, LargerEpsilonNeverIncreasesLafLatency) {
  gen::SyntheticConfig cfg;
  cfg.num_tasks = 12;
  cfg.num_workers = 3000;
  cfg.grid_side = 120.0;
  cfg.seed = 9;
  std::int64_t prev = std::numeric_limits<std::int64_t>::max();
  for (double epsilon : {0.06, 0.10, 0.14, 0.18, 0.22}) {
    cfg.epsilon = epsilon;
    auto instance = gen::GenerateSynthetic(cfg);
    ASSERT_TRUE(instance.ok());
    Built b = Build(std::move(instance).value());
    auto metrics = sim::RunAlgorithm("LAF", b.instance, *b.index);
    ASSERT_TRUE(metrics.ok());
    ASSERT_TRUE(metrics->completed);
    // Same instance modulo epsilon; LAF's greedy order is epsilon-free, so
    // shrinking delta can only stop earlier.
    EXPECT_LE(metrics->latency, prev) << "epsilon=" << epsilon;
    prev = metrics->latency;
  }
}

TEST(MonotonicityTest, LargerCapacityNeverIncreasesLowerBound) {
  double prev = std::numeric_limits<double>::max();
  for (int k = 2; k <= 10; ++k) {
    const auto bounds = model::TheoremTwoBounds(100, 4.6, k);
    EXPECT_LT(bounds.lower, prev);
    prev = bounds.lower;
  }
}

// ---- Foursquare-like workloads complete end to end ----

class CityTest : public ::testing::TestWithParam<const char*> {};

TEST_P(CityTest, AllAlgorithmsRunOnCityWorkload) {
  gen::FoursquareConfig cfg;
  cfg.city = std::string(GetParam()) == "NewYork" ? gen::NewYorkPreset()
                                                  : gen::TokyoPreset();
  cfg.scale = 0.01;
  cfg.epsilon = 0.14;
  auto instance = gen::GenerateFoursquareLike(cfg);
  ASSERT_TRUE(instance.ok());
  Built b = Build(std::move(instance).value());
  for (const auto& name : algo::StandardAlgorithms()) {
    auto metrics = sim::RunAlgorithm(name, b.instance, *b.index);
    ASSERT_TRUE(metrics.ok()) << name << ": " << metrics.status().ToString();
    // City streams may leave a handful of fringe tasks incomplete; validity
    // is still mandatory (enforced by the engine) and most tasks must be
    // done.
    const auto& stats = metrics->stats;
    EXPECT_GT(stats.assignments, 0) << name;
  }
}

INSTANTIATE_TEST_SUITE_P(Cities, CityTest,
                         ::testing::Values("NewYork", "Tokyo"));

// ---- AAM vs LAF: the paper's headline qualitative result ----

TEST(QualitativeShapeTest, AamUsuallyAtLeastMatchesLafOnSyntheticBatches) {
  int aam_wins_or_ties = 0;
  constexpr int kRounds = 8;
  for (int seed = 0; seed < kRounds; ++seed) {
    gen::SyntheticConfig cfg;
    cfg.num_tasks = 25;
    cfg.num_workers = 4000;
    cfg.grid_side = 200.0;
    cfg.seed = static_cast<std::uint64_t>(seed + 100);
    auto instance = gen::GenerateSynthetic(cfg);
    ASSERT_TRUE(instance.ok());
    Built b = Build(std::move(instance).value());
    auto laf = sim::RunAlgorithm("LAF", b.instance, *b.index);
    auto aam = sim::RunAlgorithm("AAM", b.instance, *b.index);
    ASSERT_TRUE(laf.ok());
    ASSERT_TRUE(aam.ok());
    if (aam->latency <= laf->latency) ++aam_wins_or_ties;
  }
  // Paper Sec. V: "In most cases, AAM outperforms Random and LAF".
  EXPECT_GE(aam_wins_or_ties, kRounds / 2);
}

}  // namespace
}  // namespace ltc
