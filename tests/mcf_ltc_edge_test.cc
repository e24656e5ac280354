// Deep-dive tests for MCF-LTC: batching boundaries, agreement with an
// independent flow solver, option handling, and incomplete-stream behaviour.

#include <gtest/gtest.h>

#include <memory>
#include <utility>
#include <vector>

#include "algo/mcf_ltc.h"
#include "flow/graph.h"
#include "gen/example_paper.h"
#include "gen/synthetic.h"
#include "model/eligibility.h"
#include "model/quality.h"
#include "oracles/min_cost_flow.h"

namespace ltc {
namespace algo {
namespace {

struct Built {
  model::ProblemInstance instance;
  std::unique_ptr<model::EligibilityIndex> index;
};

Built BuildSynthetic(std::int64_t tasks, std::int64_t workers,
                     std::uint64_t seed, double epsilon = 0.1) {
  gen::SyntheticConfig cfg;
  cfg.num_tasks = tasks;
  cfg.num_workers = workers;
  cfg.grid_side = 120.0;
  cfg.epsilon = epsilon;
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

TEST(McfLtcEdgeTest, StreamShorterThanFirstBatch) {
  // 8 workers but m covers far more: a single truncated batch must still
  // work and use whatever is available.
  Built b = BuildSynthetic(12, 8, 3);
  McfLtc mcf;
  auto result = mcf.Run(b.instance, *b.index);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->stats.mcf_batches, 1);
  EXPECT_EQ(result->stats.workers_seen, 8);
  EXPECT_FALSE(result->completed);  // 8 workers cannot cover 12 tasks
  EXPECT_TRUE(model::ValidateArrangement(b.instance, result->arrangement,
                                         false)
                  .ok());
}

TEST(McfLtcEdgeTest, ExactBatchMultipleConsumesAllBatches) {
  Built b = BuildSynthetic(6, 400, 5);
  McfLtcOptions options;
  options.first_batch_factor = 1.0;  // uniform batches
  McfLtc mcf(options);
  auto result = mcf.Run(b.instance, *b.index);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->completed);
  // Sanity on the batch count: m = ceil-free floor(|T|*ceil(delta)/K) =
  // floor(6*5/6) = 5 workers per batch; completion within the stream.
  EXPECT_GE(result->stats.mcf_batches, 1);
  EXPECT_LE(result->stats.workers_seen, b.instance.num_workers());
  EXPECT_TRUE(model::ValidateArrangement(b.instance, result->arrangement,
                                         true)
                  .ok());
}

TEST(McfLtcEdgeTest, SingleTaskSingleEligibleWorkerPool) {
  // A 1-task instance: MCF degenerates to picking the best workers.
  Built b = BuildSynthetic(1, 200, 7, /*epsilon=*/0.2);
  McfLtc mcf;
  auto result = mcf.Run(b.instance, *b.index);
  ASSERT_TRUE(result.ok());
  if (result->completed) {
    // Every assignment targets the single task.
    for (const auto& a : result->arrangement.assignments()) {
      EXPECT_EQ(a.task, 0);
    }
    EXPECT_GE(result->arrangement.accumulated(0),
              b.instance.Delta() - model::kQualityTol);
  }
}

TEST(McfLtcEdgeTest, FirstBatchFlowAgreesWithReferenceSolver) {
  // Rebuild the first batch's flow network by hand and check that MCF-LTC's
  // claimed total Acc* from the flow phase is consistent with the optimum
  // computed by the independent Bellman-Ford solver (no potentials).
  auto instance_or = gen::PaperExampleInstance(0.2);
  ASSERT_TRUE(instance_or.ok());
  const auto& instance = instance_or.value();
  auto index = model::EligibilityIndex::Build(&instance);
  ASSERT_TRUE(index.ok());

  // Hand-built network: st=0, ed=1, workers 2..9, tasks 10..12; all 8
  // workers are in the first batch (1.5m = 9 > 8).
  const double delta = instance.Delta();
  flow::FlowNetworkBuilder builder(13);
  constexpr std::int64_t kScale = 1'000'000;
  for (int w = 0; w < 8; ++w) {
    ASSERT_TRUE(builder.AddArc(0, 2 + w, 2, 0).ok());
    for (int t = 0; t < 3; ++t) {
      const double acc_star =
          instance.AccStar(static_cast<model::WorkerIndex>(w + 1),
                           static_cast<model::TaskId>(t));
      ASSERT_TRUE(builder.AddArc(2 + w, 10 + t, 1,
                                 -static_cast<std::int64_t>(
                                     std::llround(acc_star * kScale)))
                      .ok());
    }
  }
  const auto demand = static_cast<std::int64_t>(std::ceil(delta));
  for (int t = 0; t < 3; ++t) {
    ASSERT_TRUE(builder.AddArc(10 + t, 1, demand, 0).ok());
  }
  flow::FlowNetwork net;
  builder.Build(&net);
  auto reference = flow::BellmanFordMinCostMaxFlow(&net, 0, 1);
  ASSERT_TRUE(reference.ok());
  EXPECT_EQ(reference->flow, 12);  // 3 tasks x demand 4, workers suffice

  // MCF-LTC's flow-phase Acc* must match the reference optimum: its total
  // includes top-up assignments too, so it is at least the flow optimum.
  McfLtcOptions options;
  options.index_tie_break = false;  // same objective as the reference
  McfLtc mcf(options);
  auto result = mcf.Run(instance, *index);
  ASSERT_TRUE(result.ok());
  const double reference_acc_star =
      -static_cast<double>(reference->cost) / static_cast<double>(kScale);
  EXPECT_GE(result->stats.total_acc_star, reference_acc_star - 1e-6);
}

TEST(McfLtcEdgeTest, AugmentationCountBoundedByDemand) {
  Built b = BuildSynthetic(10, 500, 11);
  McfLtc mcf;
  auto result = mcf.Run(b.instance, *b.index);
  ASSERT_TRUE(result.ok());
  // Each augmentation delivers at least one unit of task demand; total
  // demand is |T| * ceil(delta) at most (per batch demands only shrink).
  const auto demand_cap = static_cast<std::int64_t>(
      b.instance.num_tasks() * std::ceil(b.instance.Delta()));
  EXPECT_LE(result->stats.mcf_augmentations,
            demand_cap * std::max<std::int64_t>(1, result->stats.mcf_batches));
  EXPECT_GT(result->stats.mcf_augmentations, 0);
}

TEST(McfLtcEdgeTest, LatencyNeverBelowSupplyOfLastTask) {
  // MCF-LTC's latency can exceed the last completion (batch effect) but the
  // arrangement must still complete everything it claims.
  Built b = BuildSynthetic(8, 600, 13);
  McfLtc mcf;
  auto result = mcf.Run(b.instance, *b.index);
  ASSERT_TRUE(result.ok());
  if (result->completed) {
    for (model::TaskId t = 0; t < b.instance.num_tasks(); ++t) {
      EXPECT_TRUE(result->arrangement.TaskCompleted(t)) << "task " << t;
    }
    EXPECT_EQ(result->latency, result->arrangement.MaxWorkerIndex());
  }
}

/// Same Acc as an inner model but with the distance structure hidden, which
/// forces EligibilityIndex down the full-scan (ascending id) path.
class ScanOnlyAccuracy : public model::AccuracyFunction {
 public:
  explicit ScanOnlyAccuracy(
      std::shared_ptr<const model::AccuracyFunction> inner)
      : inner_(std::move(inner)) {}
  double Acc(const model::Worker& w, const model::Task& t) const override {
    return inner_->Acc(w, t);
  }
  std::string Name() const override {
    return "scan-only(" + inner_->Name() + ")";
  }

 private:
  std::shared_ptr<const model::AccuracyFunction> inner_;
};

/// Instance whose grid cells do NOT enumerate tasks in id order: task 1 sits
/// in the cell left of tasks 0 and 2, so the grid path yields {1, 0, 2}.
model::ProblemInstance GridOrderInstance(
    std::shared_ptr<const model::AccuracyFunction> accuracy) {
  model::ProblemInstance instance;
  instance.epsilon = 0.2;
  instance.capacity = 2;
  instance.accuracy = std::move(accuracy);
  instance.tasks.push_back({0, {40.0, 0.0}});
  instance.tasks.push_back({1, {0.0, 0.0}});
  instance.tasks.push_back({2, {42.0, 0.0}});
  for (int i = 0; i < 30; ++i) {
    model::Worker w;
    w.index = static_cast<model::WorkerIndex>(i + 1);
    w.location = {15.0 + static_cast<double>(i % 11),
                  -3.0 + static_cast<double>(i % 7)};
    w.historical_accuracy = 0.85 + 0.01 * static_cast<double>(i % 10);
    instance.workers.push_back(w);
  }
  return instance;
}

TEST(McfLtcEdgeTest, GridCellOrderDoesNotChangeResults) {
  auto sigmoid = std::make_shared<model::SigmoidDistanceAccuracy>(30.0);
  model::ProblemInstance grid_instance = GridOrderInstance(sigmoid);
  model::ProblemInstance scan_instance =
      GridOrderInstance(std::make_shared<ScanOnlyAccuracy>(sigmoid));

  auto grid_index = model::EligibilityIndex::Build(&grid_instance);
  ASSERT_TRUE(grid_index.ok());
  ASSERT_TRUE(grid_index->spatial());
  auto scan_index = model::EligibilityIndex::Build(&scan_instance);
  ASSERT_TRUE(scan_index.ok());
  ASSERT_FALSE(scan_index->spatial());

  // The premise of the regression: for an all-tasks-eligible worker the raw
  // grid enumeration is cell order {1, 0, 2} — not ascending — while the
  // sorted batch API restores ascending ids.
  std::vector<model::TaskId> raw;
  grid_index->EligibleTasks(grid_instance.worker(1), &raw);
  ASSERT_EQ(raw, (std::vector<model::TaskId>{1, 0, 2}));
  std::vector<model::TaskId> sorted;
  grid_index->EligibleTasksSorted(grid_instance.worker(1), &sorted);
  EXPECT_EQ(sorted, (std::vector<model::TaskId>{0, 1, 2}));

  // MCF-LTC must be oblivious to the spatial index's internal order: the
  // grid-pruned run and the full-scan run see identical Acc values and must
  // produce identical schedules.
  McfLtc mcf_grid;
  auto grid_result = mcf_grid.Run(grid_instance, *grid_index);
  ASSERT_TRUE(grid_result.ok());
  McfLtc mcf_scan;
  auto scan_result = mcf_scan.Run(scan_instance, *scan_index);
  ASSERT_TRUE(scan_result.ok());

  EXPECT_EQ(grid_result->completed, scan_result->completed);
  EXPECT_EQ(grid_result->latency, scan_result->latency);
  EXPECT_EQ(grid_result->stats.assignments, scan_result->stats.assignments);
  EXPECT_NEAR(grid_result->stats.total_acc_star,
              scan_result->stats.total_acc_star, 1e-9);
  EXPECT_TRUE(grid_result->completed);
  EXPECT_TRUE(model::ValidateArrangement(grid_instance,
                                         grid_result->arrangement, true)
                  .ok());
}

TEST(McfLtcEdgeTest, HugeBatchFactorSingleBatch) {
  Built b = BuildSynthetic(6, 300, 17);
  McfLtcOptions options;
  options.batch_factor = 100.0;  // one giant batch
  McfLtc mcf(options);
  auto result = mcf.Run(b.instance, *b.index);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->stats.mcf_batches, 1);
  EXPECT_TRUE(model::ValidateArrangement(b.instance, result->arrangement,
                                         result->completed)
                  .ok());
}

}  // namespace
}  // namespace algo
}  // namespace ltc
