// Algorithm unit tests: paper Example 1-4 traces, per-algorithm behaviour,
// and the exhaustive optimum on hand-built instances.

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "algo/aam.h"
#include "algo/base_off.h"
#include "algo/exhaustive.h"
#include "algo/laf.h"
#include "algo/mcf_ltc.h"
#include "algo/random_assign.h"
#include "algo/registry.h"
#include "common/string_util.h"
#include "gen/example_paper.h"
#include "gen/synthetic.h"
#include "model/eligibility.h"
#include "model/quality.h"
#include "sim/engine.h"

namespace ltc {
namespace algo {
namespace {

using model::EligibilityIndex;
using model::ProblemInstance;
using model::TaskId;
using model::WorkerIndex;

struct Fixture {
  ProblemInstance instance;
  std::unique_ptr<EligibilityIndex> index;
};

Fixture PaperFixture(double epsilon = 0.2) {
  auto instance = gen::PaperExampleInstance(epsilon);
  instance.status().CheckOK();
  Fixture f{std::move(instance).value(), nullptr};
  auto index = EligibilityIndex::Build(&f.instance);
  index.status().CheckOK();
  f.index = std::make_unique<EligibilityIndex>(std::move(index).value());
  return f;
}

/// Runs an online scheduler over the stream (DriveOnline), returning the
/// tasks each examined worker received, in commit order.
std::vector<std::vector<TaskId>> Drive(OnlineScheduler* s,
                                       const Fixture& f) {
  auto workers_seen = DriveOnline(f.instance, *f.index, s);
  workers_seen.status().CheckOK();
  std::vector<std::vector<TaskId>> trace(
      static_cast<std::size_t>(*workers_seen));
  for (const model::Assignment& a : s->arrangement().assignments()) {
    trace[static_cast<std::size_t>(a.worker) - 1].push_back(a.task);
  }
  return trace;
}

// ---- LAF: paper Example 3, exact trace ----

TEST(LafTest, ReproducesPaperExampleThree) {
  Fixture f = PaperFixture();
  Laf laf;
  auto trace = Drive(&laf, f);
  // "t2 and t1 are assigned to w1 ... t1 and t2 are also assigned to
  //  w2, w3, w4 ... LAF would keep assigning t3 ... 8 workers are needed."
  ASSERT_EQ(trace.size(), 8u);
  EXPECT_EQ(trace[0], (std::vector<TaskId>{1, 0}));  // w1: t2 first (0.92)
  EXPECT_EQ(trace[1], (std::vector<TaskId>{0, 1}));  // w2: t1 first
  EXPECT_EQ(trace[2], (std::vector<TaskId>{0, 1}));
  EXPECT_EQ(trace[3], (std::vector<TaskId>{0, 1}));  // w4 ties -> lower id
  for (int w = 4; w < 8; ++w) {
    EXPECT_EQ(trace[static_cast<std::size_t>(w)],
              (std::vector<TaskId>{2}));  // t3 only
  }
  EXPECT_EQ(laf.arrangement().MaxWorkerIndex(), 8);
  EXPECT_TRUE(laf.arrangement().AllCompleted());
  // Paper: S = {3.61, 3.54} after w4.
  EXPECT_NEAR(laf.arrangement().accumulated(0), 3.6112, 1e-3);
  EXPECT_NEAR(laf.arrangement().accumulated(1), 3.5360, 1e-3);
  EXPECT_TRUE(
      model::ValidateArrangement(f.instance, laf.arrangement(), true).ok());
}

// ---- AAM: follows Algorithm 3 (see EXPERIMENTS.md on the paper's trace) ----

TEST(AamTest, FollowsAlgorithmThreeOnPaperExample) {
  Fixture f = PaperFixture();
  Aam aam;
  auto trace = Drive(&aam, f);
  // Algorithm 3 executed faithfully: LGF for w1-w2, switch to LRF at w3
  // (avg = 3.06 < maxRemain = 3.22), finishing with 6 workers. The paper's
  // narrated trace (7 workers) keeps LGF one arrival longer than its own
  // switch rule; we follow the pseudocode.
  ASSERT_EQ(trace.size(), 6u);
  EXPECT_EQ(trace[0], (std::vector<TaskId>{1, 0}));  // LGF, same as LAF
  EXPECT_EQ(trace[1], (std::vector<TaskId>{0, 1}));  // LGF
  EXPECT_EQ(trace[2], (std::vector<TaskId>{2, 0}));  // LRF: t3 most remaining
  EXPECT_EQ(aam.last_strategy(), Aam::Strategy::kLrf);
  EXPECT_EQ(aam.arrangement().MaxWorkerIndex(), 6);
  EXPECT_TRUE(aam.arrangement().AllCompleted());
  EXPECT_TRUE(
      model::ValidateArrangement(f.instance, aam.arrangement(), true).ok());
  // AAM beats LAF on this instance (paper's qualitative claim).
  Fixture f2 = PaperFixture();
  Laf laf;
  Drive(&laf, f2);
  EXPECT_LT(aam.arrangement().MaxWorkerIndex(),
            laf.arrangement().MaxWorkerIndex());
}

TEST(AamTest, StartsWithLgfWhenAverageDominates) {
  Fixture f = PaperFixture();
  Aam aam;
  aam.InitStreaming(f.instance).CheckOK();
  std::vector<TaskId> eligible;
  f.index->EligibleTasksSorted(f.instance.worker(1), &eligible);
  std::vector<OnlineScheduler::StreamCommit> commits;
  aam.OnBatchWithCandidates({1}, {&eligible}, &commits).CheckOK();
  // avg = 3 * 3.219 / 2 = 4.83 >= maxRemain = 3.219 -> LGF.
  EXPECT_EQ(aam.last_strategy(), Aam::Strategy::kLgf);
}

// ---- MCF-LTC ----

TEST(McfLtcTest, CompletesPaperExample) {
  Fixture f = PaperFixture();
  McfLtc mcf;
  auto result = mcf.Run(f.instance, *f.index);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->completed);
  // All 8 workers fall inside the first batch (1.5m = 9 > 8); the flow
  // maximises total Acc*, which on this matrix needs workers up to w7
  // (the paper's Example 2 narrates an idealised 6).
  EXPECT_EQ(result->latency, 7);
  EXPECT_EQ(result->stats.mcf_batches, 1);
  EXPECT_GT(result->stats.mcf_augmentations, 0);
  EXPECT_TRUE(model::ValidateArrangement(f.instance, result->arrangement,
                                         true)
                  .ok());
  // The flow solution maximises the total Acc* pulled from the batch: it
  // must be at least every greedy baseline's.
  Fixture f2 = PaperFixture();
  Laf laf;
  Drive(&laf, f2);
  double laf_total = 0;
  for (const auto& a : laf.arrangement().assignments()) laf_total += a.acc_star;
  EXPECT_GE(result->stats.total_acc_star, laf_total - 1e-9);
}

TEST(McfLtcTest, BatchFactorValidation) {
  Fixture f = PaperFixture();
  McfLtcOptions options;
  options.batch_factor = 0.0;
  McfLtc mcf(options);
  EXPECT_FALSE(mcf.Run(f.instance, *f.index).ok());
}

TEST(McfLtcTest, SmallBatchesStillComplete) {
  Fixture f = PaperFixture();
  McfLtcOptions options;
  options.batch_factor = 0.34;  // batch of 2 workers
  options.first_batch_factor = 1.0;
  McfLtc mcf(options);
  auto result = mcf.Run(f.instance, *f.index);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->completed);
  EXPECT_GT(result->stats.mcf_batches, 1);
  EXPECT_TRUE(model::ValidateArrangement(f.instance, result->arrangement,
                                         true)
                  .ok());
}

TEST(McfLtcTest, TieBreakPrefersEarlyWorkers) {
  // Uniform accuracies: every optimum has equal cost, so the tie-break must
  // pull the latency down to the exhaustive optimum.
  ProblemInstance instance;
  instance.epsilon = 0.2;  // delta = 3.22 -> 4 workers per task at Acc*=0.85
  instance.capacity = 1;
  instance.acc_min = 0.5;
  std::vector<std::vector<double>> matrix(12, std::vector<double>(2, 0.96));
  auto acc = model::MatrixAccuracy::Create(matrix);
  ASSERT_TRUE(acc.ok());
  instance.accuracy = acc.value();
  for (TaskId t = 0; t < 2; ++t) {
    instance.tasks.push_back(model::Task{t, {0, 0}});
  }
  for (WorkerIndex w = 1; w <= 12; ++w) {
    model::Worker worker;
    worker.index = w;
    worker.historical_accuracy = 0.96;
    instance.workers.push_back(worker);
  }
  ASSERT_TRUE(instance.Validate().ok());
  auto index = EligibilityIndex::Build(&instance);
  ASSERT_TRUE(index.ok());

  McfLtc with_tie;  // default: tie-break on
  auto r1 = with_tie.Run(instance, *index);
  ASSERT_TRUE(r1.ok());
  EXPECT_TRUE(r1->completed);
  // Each task needs ceil(3.22 / 0.846) = 4 workers; K = 1 -> 8 workers.
  EXPECT_EQ(r1->latency, 8);

  McfLtcOptions no_tie_options;
  no_tie_options.index_tie_break = false;
  McfLtc no_tie(no_tie_options);
  auto r2 = no_tie.Run(instance, *index);
  ASSERT_TRUE(r2.ok());
  EXPECT_TRUE(r2->completed);
  EXPECT_GE(r2->latency, r1->latency);  // tie-break can only help
}

// ---- Base-off ----

TEST(BaseOffTest, CompletesPaperExample) {
  Fixture f = PaperFixture();
  BaseOff base;
  auto result = base.Run(f.instance, *f.index);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->completed);
  EXPECT_GE(result->latency, 6);  // cannot beat the optimum
  EXPECT_TRUE(model::ValidateArrangement(f.instance, result->arrangement,
                                         true)
                  .ok());
}

TEST(BaseOffTest, PrefersScarceTasks) {
  // Task 0 is servable by every worker, task 1 only by worker 1. Base-off
  // must route worker 1 to the scarce task first.
  ProblemInstance instance;
  instance.epsilon = 0.65;  // delta ~= 0.86 < (2*0.99-1)^2: one worker
                            // completes a task
  instance.capacity = 1;
  instance.acc_min = 0.5;
  std::vector<std::vector<double>> matrix = {
      {0.99, 0.99},  // w1: eligible for both
      {0.99, 0.0},   // w2: only t0
      {0.99, 0.0},   // w3: only t0
  };
  auto acc = model::MatrixAccuracy::Create(matrix);
  ASSERT_TRUE(acc.ok());
  instance.accuracy = acc.value();
  for (TaskId t = 0; t < 2; ++t) {
    instance.tasks.push_back(model::Task{t, {0, 0}});
  }
  for (WorkerIndex w = 1; w <= 3; ++w) {
    model::Worker worker;
    worker.index = w;
    worker.historical_accuracy = 0.99;
    instance.workers.push_back(worker);
  }
  ASSERT_TRUE(instance.Validate().ok());
  auto index = EligibilityIndex::Build(&instance);
  ASSERT_TRUE(index.ok());
  BaseOff base;
  auto result = base.Run(instance, *index);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->completed);
  ASSERT_GE(result->arrangement.size(), 2);
  // w1 must take t1 (the scarce task), leaving t0 to w2.
  EXPECT_EQ(result->arrangement.assignments()[0].worker, 1);
  EXPECT_EQ(result->arrangement.assignments()[0].task, 1);
  EXPECT_EQ(result->latency, 2);
}

// ---- Random ----

TEST(RandomAssignTest, DeterministicPerSeedAndValid) {
  Fixture f = PaperFixture();
  RandomAssign a(123);
  RandomAssign b(123);
  RandomAssign c(456);
  auto trace_a = Drive(&a, f);
  auto trace_b = Drive(&b, f);
  auto trace_c = Drive(&c, f);
  EXPECT_EQ(trace_a, trace_b);
  EXPECT_TRUE(a.arrangement().AllCompleted());
  EXPECT_TRUE(
      model::ValidateArrangement(f.instance, a.arrangement(), true).ok());
  (void)trace_c;  // different seed may or may not differ; validity matters
  EXPECT_TRUE(
      model::ValidateArrangement(f.instance, c.arrangement(), true).ok());
}

// ---- Snapshot restore: hand-made blobs outside the serialized domain ----

// Restores `scheduler` from scheduler records the way a pipeline does:
// InitStreaming, then a reader archive that must be consumed exactly.
Status RestoreFromRecords(OnlineScheduler* scheduler,
                          const model::ProblemInstance& instance,
                          const std::string& records) {
  LTC_RETURN_IF_ERROR(scheduler->InitStreaming(instance));
  StateArchive ar = StateArchive::Reader(records);
  LTC_RETURN_IF_ERROR(scheduler->Serialize(ar));
  return ar.End();
}

TEST(SnapshotRestoreTest, RandomRejectsOutOfDomainRngLines) {
  Fixture f = PaperFixture();
  RandomAssign rnd(7);
  rnd.InitStreaming(f.instance).CheckOK();
  std::string blob;
  StateArchive writer = StateArchive::Writer(&blob);
  rnd.Serialize(writer).CheckOK();
  // The arrangement's records come first; the rng line is the last one.
  const std::size_t rng_at = blob.find("x rng ");
  ASSERT_NE(rng_at, std::string::npos) << blob;
  const std::string arrangement = blob.substr(0, rng_at);
  ASSERT_TRUE(RestoreFromRecords(&rnd, f.instance, blob).ok());
  // Fields of the valid line: "x", "rng", four words, gaussian, flag.
  const std::vector<std::string> good = Split(Trim(blob.substr(rng_at)), ' ');
  ASSERT_EQ(good.size(), 8u);
  auto with = [&arrangement, &good](std::size_t field,
                                    const std::string& value) {
    std::vector<std::string> f = good;
    f[field] = value;
    return arrangement + Join(f, " ") + "\n";
  };
  const std::string kBad[] = {
      with(2, "-1"),            // strtoull would wrap to 2^64 - 1
      with(3, "+7"),            // signed
      with(4, "\t7"),           // leading whitespace
      with(5, "18446744073709551616"),  // 2^64 overflows
      arrangement + "x rng 0 0 0 0 0 0\n",  // xoshiro's all-zero fixed point
      with(7, "2"),             // the flag is 0 or 1
      with(7, "-1"),
      with(6, "nan"),           // the cached gaussian is finite
      with(6, "inf"),
  };
  for (const std::string& bad : kBad) {
    EXPECT_TRUE(RestoreFromRecords(&rnd, f.instance, bad).IsInvalidArgument())
        << bad;
  }
}

// A read takes S and the counters as stored and lists no assignment: the
// snapshot's workers are all retired, so no load is rebuilt and nothing is
// added to S a second time. A listed-assignment "a" record is not part of
// the format.
TEST(SnapshotRestoreTest, RestoreTakesSAndCountersAsStored) {
  Fixture f = PaperFixture();
  Laf laf;
  const std::string records = "arr 1 1 0.25\ns 0.25\ns 0\ns 0\n";
  ASSERT_TRUE(RestoreFromRecords(&laf, f.instance, records).ok());
  const model::Arrangement& arr = laf.arrangement();
  EXPECT_EQ(arr.accumulated(0), 0.25);
  EXPECT_EQ(arr.accumulated(1), 0.0);
  EXPECT_EQ(arr.total_acc_star(), 0.25);
  EXPECT_EQ(arr.workers_used(), 1);
  EXPECT_EQ(arr.MaxWorkerIndex(), 1);
  EXPECT_EQ(arr.Load(1), 0);
  EXPECT_EQ(arr.size(), 0);
  EXPECT_TRUE(RestoreFromRecords(&laf, f.instance, records + "a 1 0 0.25\n")
                  .IsInvalidArgument());
  // A negative S and a count past the resident workers are refused.
  EXPECT_TRUE(RestoreFromRecords(&laf, f.instance,
                                 "arr 0 0 0\ns -1\ns 0\ns 0\n")
                  .IsInvalidArgument());
  EXPECT_TRUE(RestoreFromRecords(&laf, f.instance,
                                 "arr 99 0 0\ns 0\ns 0\ns 0\n")
                  .IsOutOfRange());
}

// ---- Exhaustive ----

TEST(ExhaustiveTest, FindsOptimumOnPaperExample) {
  Fixture f = PaperFixture();
  Exhaustive exhaustive;
  auto result = exhaustive.Run(f.instance, *f.index);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->completed);
  // With Acc* semantics and delta = 3.219, 6 workers are necessary and
  // sufficient (each task needs 4 answers, 12 assignments / K=2 = 6).
  EXPECT_EQ(result->latency, 6);
  EXPECT_TRUE(model::ValidateArrangement(f.instance, result->arrangement,
                                         true)
                  .ok());
}

TEST(ExhaustiveTest, RefusesLargeInstances) {
  gen::SyntheticConfig cfg;
  cfg.num_tasks = 10;
  cfg.num_workers = 100;
  cfg.grid_side = 50;
  auto instance = gen::GenerateSynthetic(cfg);
  ASSERT_TRUE(instance.ok());
  auto index = EligibilityIndex::Build(&instance.value());
  ASSERT_TRUE(index.ok());
  Exhaustive exhaustive;
  EXPECT_TRUE(
      exhaustive.Run(*instance, *index).status().IsFailedPrecondition());
}

TEST(ExhaustiveTest, DetectsInfeasibleInstance) {
  ProblemInstance instance;
  instance.epsilon = 0.05;  // delta ~= 6: unreachable with 2 weak workers
  instance.capacity = 1;
  instance.acc_min = 0.5;
  auto acc = model::MatrixAccuracy::Create({{0.9}, {0.9}});
  ASSERT_TRUE(acc.ok());
  instance.accuracy = acc.value();
  instance.tasks.push_back(model::Task{0, {0, 0}});
  for (WorkerIndex w = 1; w <= 2; ++w) {
    model::Worker worker;
    worker.index = w;
    worker.historical_accuracy = 0.9;
    instance.workers.push_back(worker);
  }
  ASSERT_TRUE(instance.Validate().ok());
  auto index = EligibilityIndex::Build(&instance);
  ASSERT_TRUE(index.ok());
  Exhaustive exhaustive;
  auto result = exhaustive.Run(instance, *index);
  ASSERT_TRUE(result.ok());
  EXPECT_FALSE(result->completed);
}

// ---- Registry ----

TEST(RegistryTest, StandardRoster) {
  const auto names = StandardAlgorithms();
  ASSERT_EQ(names.size(), 5u);
  for (const auto& name : names) {
    auto online = IsOnlineAlgorithm(name);
    ASSERT_TRUE(online.ok()) << name;
    if (online.value()) {
      EXPECT_TRUE(MakeOnlineScheduler(name, 1).ok()) << name;
    } else {
      EXPECT_TRUE(MakeOfflineScheduler(name).ok()) << name;
    }
  }
  EXPECT_TRUE(IsOnlineAlgorithm("NoSuchAlgo").status().IsNotFound());
  EXPECT_TRUE(MakeOfflineScheduler("LAF").status().IsNotFound());
  EXPECT_TRUE(MakeOnlineScheduler("MCF-LTC", 1).status().IsNotFound());
}

}  // namespace
}  // namespace algo
}  // namespace ltc
