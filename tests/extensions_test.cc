// Tests for the extension modules: convex hull, instance lower bounds,
// AAM strategy ablations (LGF-only / LRF-only), arrangement statistics, and
// the Theorem-4 adversarial construction.

#include <gtest/gtest.h>

#include <memory>

#include "algo/aam.h"
#include "algo/lower_bound.h"
#include "algo/registry.h"
#include "gen/example_paper.h"
#include "gen/foursquare.h"
#include "gen/synthetic.h"
#include "model/eligibility.h"
#include "oracles/arrangement_stats.h"
#include "oracles/convex_hull.h"
#include "sim/engine.h"

namespace ltc {
namespace {

// ---- Convex hull ----

TEST(ConvexHullTest, SquareWithInteriorPoints) {
  std::vector<geo::Point> points = {{0, 0}, {10, 0}, {10, 10}, {0, 10},
                                    {5, 5}, {2, 7},  {9, 1}};
  const auto hull = geo::ConvexHull(points);
  ASSERT_EQ(hull.size(), 4u);
  EXPECT_TRUE(geo::HullContains(hull, {5, 5}));
  EXPECT_TRUE(geo::HullContains(hull, {0, 0}));    // vertex
  EXPECT_TRUE(geo::HullContains(hull, {5, 0}));    // edge
  EXPECT_FALSE(geo::HullContains(hull, {11, 5}));
  EXPECT_FALSE(geo::HullContains(hull, {-0.1, 0}));
}

TEST(ConvexHullTest, CollinearAndDegenerate) {
  EXPECT_TRUE(geo::ConvexHull({}).empty());
  EXPECT_EQ(geo::ConvexHull({{1, 1}}).size(), 1u);
  EXPECT_EQ(geo::ConvexHull({{1, 1}, {1, 1}}).size(), 1u);
  EXPECT_EQ(geo::ConvexHull({{0, 0}, {5, 5}}).size(), 2u);
  // All collinear: hull keeps the two extremes.
  const auto hull = geo::ConvexHull({{0, 0}, {1, 1}, {2, 2}, {3, 3}});
  EXPECT_EQ(hull.size(), 2u);
  EXPECT_TRUE(geo::HullContains(hull, {2, 2}));
  EXPECT_FALSE(geo::HullContains(hull, {2, 3}));
}

TEST(ConvexHullTest, CrossSign) {
  EXPECT_GT(geo::Cross({0, 0}, {1, 0}, {1, 1}), 0.0);  // left turn
  EXPECT_LT(geo::Cross({0, 0}, {1, 0}, {1, -1}), 0.0);  // right turn
  EXPECT_EQ(geo::Cross({0, 0}, {1, 1}, {2, 2}), 0.0);   // collinear
}

TEST(ConvexHullTest, FoursquareTasksLieInWorkerHull) {
  gen::FoursquareConfig cfg;
  cfg.city = gen::NewYorkPreset();
  cfg.scale = 0.01;
  auto instance = gen::GenerateFoursquareLike(cfg);
  ASSERT_TRUE(instance.ok());
  std::vector<geo::Point> worker_points;
  for (const auto& w : instance->workers) worker_points.push_back(w.location);
  const auto hull = geo::ConvexHull(std::move(worker_points));
  ASSERT_GE(hull.size(), 3u);
  // The generator anchors tasks at check-ins, so virtually all tasks must
  // fall inside the workers' convex region (the paper's construction).
  std::int64_t inside = 0;
  for (const auto& t : instance->tasks) {
    if (geo::HullContains(hull, t.location)) ++inside;
  }
  EXPECT_GE(inside, instance->num_tasks() * 95 / 100);
}

// ---- Instance lower bounds ----

struct Built {
  model::ProblemInstance instance;
  std::unique_ptr<model::EligibilityIndex> index;
};

Built BuildSynthetic(std::uint64_t seed) {
  gen::SyntheticConfig cfg;
  cfg.num_tasks = 20;
  cfg.num_workers = 2500;
  cfg.grid_side = 150.0;
  cfg.seed = seed;
  auto instance = gen::GenerateSynthetic(cfg);
  instance.status().CheckOK();
  Built b{std::move(instance).value(), nullptr};
  auto index = model::EligibilityIndex::Build(&b.instance);
  index.status().CheckOK();
  b.index =
      std::make_unique<model::EligibilityIndex>(std::move(index).value());
  return b;
}

TEST(LowerBoundTest, BoundsEveryAlgorithm) {
  for (std::uint64_t seed : {1u, 2u, 3u}) {
    Built b = BuildSynthetic(seed);
    auto bound = algo::ComputeLowerBound(b.instance, *b.index);
    ASSERT_TRUE(bound.ok());
    ASSERT_TRUE(bound->feasible);
    EXPECT_GT(bound->supply_bound, 0);
    EXPECT_GT(bound->work_bound, 0);
    EXPECT_GE(bound->binding_task, 0);
    EXPECT_EQ(bound->combined,
              std::max(bound->supply_bound, bound->work_bound));
    for (const auto& name : algo::StandardAlgorithms()) {
      auto metrics = sim::RunAlgorithm(name, b.instance, *b.index);
      ASSERT_TRUE(metrics.ok()) << name;
      if (metrics->completed) {
        EXPECT_GE(metrics->latency, bound->combined)
            << name << " beat the lower bound (seed " << seed << ")";
      }
    }
  }
}

TEST(LowerBoundTest, DetectsInfeasibleTask) {
  // One task, workers too weak/few to reach delta.
  model::ProblemInstance instance;
  instance.epsilon = 0.05;  // delta ~= 6
  instance.capacity = 2;
  instance.acc_min = 0.5;
  auto acc = model::MatrixAccuracy::Create({{0.9}, {0.9}});
  ASSERT_TRUE(acc.ok());
  instance.accuracy = acc.value();
  instance.tasks.push_back(model::Task{0, {0, 0}});
  for (model::WorkerIndex w = 1; w <= 2; ++w) {
    model::Worker worker;
    worker.index = w;
    worker.historical_accuracy = 0.9;
    instance.workers.push_back(worker);
  }
  auto index = model::EligibilityIndex::Build(&instance);
  ASSERT_TRUE(index.ok());
  auto bound = algo::ComputeLowerBound(instance, *index);
  ASSERT_TRUE(bound.ok());
  EXPECT_FALSE(bound->feasible);
}

TEST(LowerBoundTest, SupplyBoundTightOnSerialInstance) {
  // Single task; every second worker eligible with Acc* ~0.85 and
  // delta = 3.22 -> needs 4 eligible workers -> the 4th eligible arrival.
  model::ProblemInstance instance;
  instance.epsilon = 0.2;
  instance.capacity = 1;
  instance.acc_min = 0.5;
  std::vector<std::vector<double>> matrix;
  for (int i = 0; i < 10; ++i) {
    matrix.push_back({i % 2 == 0 ? 0.96 : 0.0});
  }
  auto acc = model::MatrixAccuracy::Create(matrix);
  ASSERT_TRUE(acc.ok());
  instance.accuracy = acc.value();
  instance.tasks.push_back(model::Task{0, {0, 0}});
  for (model::WorkerIndex w = 1; w <= 10; ++w) {
    model::Worker worker;
    worker.index = w;
    worker.historical_accuracy = 0.96;
    instance.workers.push_back(worker);
  }
  auto index = model::EligibilityIndex::Build(&instance);
  ASSERT_TRUE(index.ok());
  auto bound = algo::ComputeLowerBound(instance, *index);
  ASSERT_TRUE(bound.ok());
  // Eligible workers are 1, 3, 5, 7, ...; the 4th is worker 7.
  EXPECT_EQ(bound->supply_bound, 7);
  EXPECT_TRUE(bound->feasible);
  // And LAF indeed completes exactly at the bound (it takes every eligible
  // arrival for the single task).
  auto metrics = sim::RunAlgorithm("LAF", instance, *index);
  ASSERT_TRUE(metrics.ok());
  EXPECT_TRUE(metrics->completed);
  EXPECT_EQ(metrics->latency, 7);
}

// ---- AAM strategy ablation ----

TEST(AamAblationTest, ForcedStrategiesRunAndAamIsNoWorse) {
  Built b = BuildSynthetic(11);
  auto aam = sim::RunAlgorithm("AAM", b.instance, *b.index);
  auto lgf = sim::RunAlgorithm("LGF-only", b.instance, *b.index);
  auto lrf = sim::RunAlgorithm("LRF-only", b.instance, *b.index);
  ASSERT_TRUE(aam.ok());
  ASSERT_TRUE(lgf.ok());
  ASSERT_TRUE(lrf.ok());
  EXPECT_TRUE(aam->completed);
  EXPECT_TRUE(lgf->completed);
  EXPECT_TRUE(lrf->completed);
  // The hybrid should not lose to both pure strategies at once.
  EXPECT_LE(aam->latency, std::max(lgf->latency, lrf->latency));
}

TEST(AamAblationTest, ForcedStrategyIsPinned) {
  auto instance = gen::PaperExampleInstance(0.2);
  ASSERT_TRUE(instance.ok());
  auto index = model::EligibilityIndex::Build(&instance.value());
  ASSERT_TRUE(index.ok());
  algo::AamOptions lrf_options;
  lrf_options.force = algo::AamOptions::Force::kLrfOnly;
  algo::Aam lrf(lrf_options);
  EXPECT_EQ(lrf.Name(), "LRF-only");
  lrf.InitStreaming(*instance).CheckOK();
  std::vector<model::TaskId> eligible;
  index->EligibleTasksSorted(instance->worker(1), &eligible);
  std::vector<algo::OnlineScheduler::StreamCommit> commits;
  lrf.OnBatchWithCandidates({1}, {&eligible}, &commits).CheckOK();
  EXPECT_EQ(lrf.last_strategy(), algo::Aam::Strategy::kLrf);
  // LRF on w1 picks the two most-demanding tasks: all tie at delta, so the
  // lowest ids win.
  ASSERT_EQ(commits.size(), 2u);
  EXPECT_EQ(commits[0].task, 0);
  EXPECT_EQ(commits[1].task, 1);
}

// ---- Arrangement statistics ----

TEST(ArrangementStatsTest, PerTaskCompletionIndices) {
  auto instance = gen::PaperExampleInstance(0.2);
  ASSERT_TRUE(instance.ok());
  auto index = model::EligibilityIndex::Build(&instance.value());
  ASSERT_TRUE(index.ok());
  auto scheduler = algo::MakeOnlineScheduler("LAF", 1);
  ASSERT_TRUE(scheduler.ok());
  algo::DriveOnline(*instance, *index, scheduler->get()).status().CheckOK();
  auto stats =
      sim::ComputeArrangementStats(*instance, (*scheduler)->arrangement());
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->completed_tasks, 3);
  EXPECT_EQ(stats->total_tasks, 3);
  // From the paper's Example 3 trace: t1 completes at w4, t2 at w4, t3 at w8.
  std::vector<std::int64_t> sorted = stats->completion_index;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_EQ(sorted, (std::vector<std::int64_t>{4, 4, 8}));
  EXPECT_EQ(stats->max, 8);
  EXPECT_EQ(stats->median, 4);
  EXPECT_NEAR(stats->mean, (4 + 4 + 8) / 3.0, 1e-9);
  EXPECT_EQ(stats->wasted_assignments, 0);
}

TEST(ArrangementStatsTest, CountsWasteForNaiveRandom) {
  Built b = BuildSynthetic(21);
  auto scheduler = algo::MakeOnlineScheduler("Random", 5);
  ASSERT_TRUE(scheduler.ok());
  algo::DriveOnline(b.instance, *b.index, scheduler->get()).status().CheckOK();
  auto stats =
      sim::ComputeArrangementStats(b.instance, (*scheduler)->arrangement());
  ASSERT_TRUE(stats.ok());
  // The naive baseline answers completed tasks; some waste must show up.
  EXPECT_GT(stats->wasted_assignments, 0);
  // LAF, by contrast, never wastes.
  auto laf = algo::MakeOnlineScheduler("LAF", 5);
  ASSERT_TRUE(laf.ok());
  algo::DriveOnline(b.instance, *b.index, laf->get()).status().CheckOK();
  auto laf_stats =
      sim::ComputeArrangementStats(b.instance, (*laf)->arrangement());
  ASSERT_TRUE(laf_stats.ok());
  EXPECT_EQ(laf_stats->wasted_assignments, 0);
}

TEST(ArrangementStatsTest, EmptyArrangement) {
  auto instance = gen::PaperExampleInstance(0.2);
  ASSERT_TRUE(instance.ok());
  model::Arrangement empty(3, instance->Delta());
  auto stats = sim::ComputeArrangementStats(*instance, empty);
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->completed_tasks, 0);
  EXPECT_EQ(stats->max, 0);
}

// ---- Theorem 4 adversarial construction ----

TEST(AdversarialTest, GreedyTiesCanBePunished) {
  // Paper Theorem 4's adversarial family: worker 1 is equally good at both
  // tasks; whichever it picks, the adversary sends followers that are good
  // at the picked task and bad at the other. The optimum is 2 workers; any
  // deterministic greedy needs many more.
  //
  // delta = 2 ln(1/epsilon); choose epsilon so one strong answer completes
  // a task (delta < 0.92) but weak answers contribute ~0.1.
  const double epsilon = 0.65;  // delta ~= 0.86
  model::ProblemInstance instance;
  instance.epsilon = epsilon;
  instance.capacity = 1;
  instance.acc_min = 0.0;
  // Acc 0.98 -> Acc* = 0.92 (strong); Acc 0.66 -> Acc* = 0.1 (weak).
  std::vector<std::vector<double>> matrix = {
      {0.98, 0.98},  // w1: tie — LAF picks t1 (lower id)
      // Adversary: everyone after is strong at t1 (already served), weak at
      // t2 — nine weak answers needed to finish t2.
      {0.98, 0.66}, {0.98, 0.66}, {0.98, 0.66}, {0.98, 0.66}, {0.98, 0.66},
      {0.98, 0.66}, {0.98, 0.66}, {0.98, 0.66}, {0.98, 0.66}, {0.98, 0.66},
  };
  auto acc = model::MatrixAccuracy::Create(matrix);
  ASSERT_TRUE(acc.ok());
  instance.accuracy = acc.value();
  for (model::TaskId t = 0; t < 2; ++t) {
    instance.tasks.push_back(model::Task{t, {0, 0}});
  }
  for (model::WorkerIndex w = 1; w <= 11; ++w) {
    model::Worker worker;
    worker.index = w;
    worker.historical_accuracy = 0.98;
    instance.workers.push_back(worker);
  }
  ASSERT_TRUE(instance.Validate().ok());
  auto index = model::EligibilityIndex::Build(&instance);
  ASSERT_TRUE(index.ok());

  // The optimum: w1 -> t2 (strong), w2 -> t1 (strong): latency 2.
  auto optimal = algo::MakeOfflineScheduler("Exhaustive");
  ASSERT_TRUE(optimal.ok());
  auto opt = (*optimal)->Run(instance, *index);
  ASSERT_TRUE(opt.ok());
  EXPECT_TRUE(opt->completed);
  EXPECT_EQ(opt->latency, 2);

  // LAF walks into the trap: w1 takes t1, then t2 needs ceil(0.86/0.1) = 9
  // weak answers -> latency 10.
  auto laf = sim::RunAlgorithm("LAF", instance, *index);
  ASSERT_TRUE(laf.ok());
  EXPECT_TRUE(laf->completed);
  EXPECT_GE(laf->latency, 10);
  // The competitive gap matches Theorem 4's flavour (>= 5x here).
  EXPECT_GE(laf->latency, 5 * opt->latency);
}

}  // namespace
}  // namespace ltc
