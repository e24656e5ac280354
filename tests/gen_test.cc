// Tests for the workload generators: synthetic (Table IV), Foursquare-like
// (Table V substitution) and the paper's Example-1 fixture.

#include <gtest/gtest.h>

#include <map>
#include <set>

#include "gen/example_paper.h"
#include "gen/foursquare.h"
#include "gen/synthetic.h"
#include "model/eligibility.h"

namespace ltc {
namespace gen {
namespace {

TEST(SyntheticTest, DefaultsMatchTableFour) {
  SyntheticConfig cfg;
  EXPECT_EQ(cfg.num_tasks, 3000);
  EXPECT_EQ(cfg.num_workers, 40000);
  EXPECT_EQ(cfg.capacity, 6);
  EXPECT_DOUBLE_EQ(cfg.epsilon, 0.10);
  EXPECT_DOUBLE_EQ(cfg.grid_side, 1000.0);
  EXPECT_DOUBLE_EQ(cfg.dmax, 30.0);
  EXPECT_DOUBLE_EQ(cfg.accuracy_mean, 0.86);
  EXPECT_DOUBLE_EQ(cfg.accuracy_stddev, 0.05);
}

TEST(SyntheticTest, GeneratesValidInstance) {
  SyntheticConfig cfg;
  cfg.num_tasks = 50;
  cfg.num_workers = 500;
  cfg.grid_side = 200.0;
  auto instance = GenerateSynthetic(cfg);
  ASSERT_TRUE(instance.ok());
  EXPECT_TRUE(instance->Validate().ok());
  EXPECT_EQ(instance->num_tasks(), 50);
  EXPECT_EQ(instance->num_workers(), 500);
  for (const auto& t : instance->tasks) {
    EXPECT_GE(t.location.x, 0.0);
    EXPECT_LT(t.location.x, 200.0);
    EXPECT_GE(t.location.y, 0.0);
    EXPECT_LT(t.location.y, 200.0);
  }
  for (const auto& w : instance->workers) {
    EXPECT_GE(w.historical_accuracy, cfg.accuracy_floor);
    EXPECT_LE(w.historical_accuracy, cfg.accuracy_ceil);
    EXPECT_EQ(w.user_id, -1);
  }
}

TEST(SyntheticTest, DeterministicForSeed) {
  SyntheticConfig cfg;
  cfg.num_tasks = 20;
  cfg.num_workers = 100;
  cfg.seed = 77;
  auto a = GenerateSynthetic(cfg);
  auto b = GenerateSynthetic(cfg);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  for (model::WorkerIndex w = 1; w <= a->last_worker(); ++w) {
    EXPECT_EQ(a->worker(w).location, b->worker(w).location);
    EXPECT_EQ(a->worker(w).historical_accuracy,
              b->worker(w).historical_accuracy);
  }
  cfg.seed = 78;
  auto c = GenerateSynthetic(cfg);
  ASSERT_TRUE(c.ok());
  EXPECT_FALSE(a->worker(1).location == c->worker(1).location);
}

TEST(SyntheticTest, NormalVsUniformDistributions) {
  SyntheticConfig cfg;
  cfg.num_tasks = 5;
  cfg.num_workers = 20000;
  cfg.accuracy_mean = 0.86;
  cfg.distribution = AccuracyDistribution::kNormal;
  auto normal = GenerateSynthetic(cfg);
  cfg.distribution = AccuracyDistribution::kUniform;
  auto uniform = GenerateSynthetic(cfg);
  ASSERT_TRUE(normal.ok());
  ASSERT_TRUE(uniform.ok());
  auto mean_of = [](const model::ProblemInstance& inst) {
    double sum = 0;
    for (const auto& w : inst.workers) sum += w.historical_accuracy;
    return sum / static_cast<double>(inst.workers.size());
  };
  // Clipping skews slightly; both means stay near 0.86.
  EXPECT_NEAR(mean_of(*normal), 0.86, 0.01);
  EXPECT_NEAR(mean_of(*uniform), 0.86, 0.01);
  // Uniform stays strictly inside [mean - hw, mean + hw].
  for (const auto& w : uniform->workers) {
    EXPECT_GE(w.historical_accuracy, 0.86 - cfg.accuracy_halfwidth - 1e-12);
    EXPECT_LE(w.historical_accuracy, 0.86 + cfg.accuracy_halfwidth + 1e-12);
  }
}

TEST(SyntheticTest, RejectsBadConfig) {
  SyntheticConfig cfg;
  cfg.num_tasks = 0;
  EXPECT_FALSE(GenerateSynthetic(cfg).ok());
  cfg = SyntheticConfig();
  cfg.grid_side = -5;
  EXPECT_FALSE(GenerateSynthetic(cfg).ok());
  cfg = SyntheticConfig();
  cfg.accuracy_floor = 0.9;
  cfg.accuracy_ceil = 0.8;
  EXPECT_FALSE(GenerateSynthetic(cfg).ok());
}

TEST(FoursquareTest, PresetsMatchTableFive) {
  const CityPreset ny = NewYorkPreset();
  EXPECT_EQ(ny.num_tasks, 3717);
  EXPECT_EQ(ny.num_checkins, 227428);
  const CityPreset tokyo = TokyoPreset();
  EXPECT_EQ(tokyo.num_tasks, 9317);
  EXPECT_EQ(tokyo.num_checkins, 573703);
}

TEST(FoursquareTest, ScaledGenerationIsValidAndClustered) {
  FoursquareConfig cfg;
  cfg.city = NewYorkPreset();
  cfg.scale = 0.01;  // 37 tasks, ~2274 check-ins
  auto instance = GenerateFoursquareLike(cfg);
  ASSERT_TRUE(instance.ok());
  EXPECT_TRUE(instance->Validate().ok());
  EXPECT_EQ(instance->num_tasks(), 37);
  EXPECT_EQ(instance->num_workers(), 2274);
  EXPECT_EQ(instance->capacity, 6);

  // Repeat workers: some user must appear more than once, with a persistent
  // accuracy.
  std::map<std::int64_t, std::set<double>> accuracy_by_user;
  std::map<std::int64_t, int> checkins_by_user;
  for (const auto& w : instance->workers) {
    ASSERT_GE(w.user_id, 0);
    accuracy_by_user[w.user_id].insert(w.historical_accuracy);
    ++checkins_by_user[w.user_id];
  }
  int max_checkins = 0;
  for (const auto& [uid, count] : checkins_by_user) {
    max_checkins = std::max(max_checkins, count);
  }
  EXPECT_GT(max_checkins, 5) << "power users should dominate the stream";
  for (const auto& [uid, accs] : accuracy_by_user) {
    EXPECT_EQ(accs.size(), 1u) << "user " << uid << " accuracy must persist";
  }
}

TEST(FoursquareTest, EveryTaskHasNearbyEligibleWorkers) {
  FoursquareConfig cfg;
  cfg.city = NewYorkPreset();
  cfg.scale = 0.02;
  auto instance = GenerateFoursquareLike(cfg);
  ASSERT_TRUE(instance.ok());
  auto index = model::EligibilityIndex::Build(&instance.value());
  ASSERT_TRUE(index.ok());
  // Count eligible workers per task by scanning workers' eligible lists.
  std::vector<int> per_task(static_cast<std::size_t>(instance->num_tasks()),
                            0);
  std::vector<model::TaskId> ids;
  for (const auto& w : instance->workers) {
    index->EligibleTasks(w, &ids);
    for (auto t : ids) ++per_task[static_cast<std::size_t>(t)];
  }
  int starved = 0;
  for (int c : per_task) {
    if (c < 10) ++starved;
  }
  // Tasks are planted at check-in locations, so starvation must be rare.
  EXPECT_LE(starved, instance->num_tasks() / 20);
}

TEST(FoursquareTest, DeterministicAndScaleValidation) {
  FoursquareConfig cfg;
  cfg.city = TokyoPreset();
  cfg.scale = 0.005;
  auto a = GenerateFoursquareLike(cfg);
  auto b = GenerateFoursquareLike(cfg);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  ASSERT_EQ(a->num_workers(), b->num_workers());
  for (model::WorkerIndex w = 1; w <= a->last_worker(); ++w) {
    EXPECT_EQ(a->worker(w).location, b->worker(w).location);
  }
  cfg.scale = 0.0;
  EXPECT_FALSE(GenerateFoursquareLike(cfg).ok());
}

TEST(PaperExampleTest, MatchesTableOne) {
  auto instance = PaperExampleInstance(0.2);
  ASSERT_TRUE(instance.ok());
  EXPECT_EQ(instance->num_tasks(), 3);
  EXPECT_EQ(instance->num_workers(), 8);
  EXPECT_EQ(instance->capacity, 2);
  EXPECT_NEAR(instance->Delta(), 3.2189, 1e-4);
  // Spot checks against Table I.
  EXPECT_DOUBLE_EQ(instance->Acc(1, 0), 0.96);
  EXPECT_DOUBLE_EQ(instance->Acc(1, 1), 0.98);
  EXPECT_DOUBLE_EQ(instance->Acc(4, 2), 0.98);
  EXPECT_DOUBLE_EQ(instance->Acc(8, 2), 0.96);
  // Acc* example from the paper: (2*0.96 - 1)^2 ~= 0.85.
  EXPECT_NEAR(instance->AccStar(1, 0), 0.8464, 1e-9);
  EXPECT_FALSE(PaperExampleInstance(0.0).ok());
}

}  // namespace
}  // namespace gen
}  // namespace ltc
