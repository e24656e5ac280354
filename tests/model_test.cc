// Tests for the model layer: accuracy functions, quality thresholds,
// arrangements + constraint validation, eligibility queries, voting.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/math_util.h"
#include "common/state_archive.h"
#include "gen/example_paper.h"
#include "gen/synthetic.h"
#include "model/accuracy.h"
#include "model/arrangement.h"
#include "model/eligibility.h"
#include "model/problem.h"
#include "model/quality.h"
#include "model/voting.h"
#include "oracles/paper_tables.h"

namespace ltc {
namespace model {
namespace {

Worker MakeWorker(WorkerIndex index, double x, double y, double acc) {
  Worker w;
  w.index = index;
  w.location = {x, y};
  w.historical_accuracy = acc;
  return w;
}

// ---- Accuracy functions ----

TEST(SigmoidDistanceAccuracyTest, MatchesPaperEquationOne) {
  SigmoidDistanceAccuracy fn(30.0);
  const Task t{0, {0, 0}};
  // At distance 0: Acc = p / (1 + e^-30) ~= p.
  EXPECT_NEAR(fn.Acc(MakeWorker(1, 0, 0, 0.9), t), 0.9, 1e-9);
  // At distance dmax: Acc = p / 2 exactly.
  EXPECT_NEAR(fn.Acc(MakeWorker(1, 30, 0, 0.9), t), 0.45, 1e-12);
  // Far away: Acc -> 0.
  EXPECT_LT(fn.Acc(MakeWorker(1, 100, 0, 0.9), t), 1e-20);
  // Monotone decreasing in distance.
  double prev = 1.0;
  for (double d : {0.0, 5.0, 10.0, 20.0, 29.0, 35.0}) {
    const double acc = fn.Acc(MakeWorker(1, d, 0, 0.9), t);
    EXPECT_LT(acc, prev);
    prev = acc;
  }
}

TEST(SigmoidDistanceAccuracyTest, AccStarDefinition) {
  SigmoidDistanceAccuracy fn(30.0);
  const Task t{0, {0, 0}};
  const Worker w = MakeWorker(1, 0, 0, 0.96);
  // Example 2: Acc* = (2*0.96 - 1)^2 ~= 0.85.
  EXPECT_NEAR(fn.AccStar(w, t), Sqr(2 * fn.Acc(w, t) - 1), 1e-12);
  EXPECT_NEAR(fn.AccStar(w, t), 0.8464, 1e-3);
}

TEST(SigmoidDistanceAccuracyTest, EligibleRadiusIsExactBoundary) {
  SigmoidDistanceAccuracy fn(30.0);
  const double acc_min = 0.66;
  for (double p : {0.70, 0.82, 0.90, 0.99}) {
    const Worker w = MakeWorker(1, 0, 0, p);
    const auto radius = fn.EligibleRadius(w, acc_min);
    ASSERT_TRUE(radius.has_value());
    ASSERT_GT(*radius, 0.0);
    const Task just_inside{0, {*radius - 1e-9, 0}};
    const Task just_outside{0, {*radius + 1e-6, 0}};
    EXPECT_GE(fn.Acc(w, just_inside), acc_min) << "p=" << p;
    EXPECT_LT(fn.Acc(w, just_outside), acc_min) << "p=" << p;
  }
}

TEST(SigmoidDistanceAccuracyTest, EligibleRadiusEmptyForWeakWorker) {
  SigmoidDistanceAccuracy fn(30.0);
  // Worker below the threshold can never reach it.
  const auto radius = fn.EligibleRadius(MakeWorker(1, 0, 0, 0.5), 0.66);
  ASSERT_TRUE(radius.has_value());
  EXPECT_LT(*radius, 0.0);
}

TEST(MatrixAccuracyTest, LooksUpByWorkerIndexAndTaskId) {
  auto fn = MatrixAccuracy::Create({{0.9, 0.8}, {0.7, 0.6}});
  ASSERT_TRUE(fn.ok());
  const Task t0{0, {0, 0}};
  const Task t1{1, {0, 0}};
  EXPECT_DOUBLE_EQ((*fn)->Acc(MakeWorker(1, 0, 0, 1), t0), 0.9);
  EXPECT_DOUBLE_EQ((*fn)->Acc(MakeWorker(1, 0, 0, 1), t1), 0.8);
  EXPECT_DOUBLE_EQ((*fn)->Acc(MakeWorker(2, 0, 0, 1), t0), 0.7);
  // Out of range -> 0 (defensive).
  EXPECT_DOUBLE_EQ((*fn)->Acc(MakeWorker(3, 0, 0, 1), t0), 0.0);
}

TEST(MatrixAccuracyTest, RejectsBadMatrices) {
  EXPECT_FALSE(MatrixAccuracy::Create({}).ok());
  EXPECT_FALSE(MatrixAccuracy::Create({{0.5}, {0.5, 0.5}}).ok());
  EXPECT_FALSE(MatrixAccuracy::Create({{1.5}}).ok());
  EXPECT_FALSE(MatrixAccuracy::Create({{-0.1}}).ok());
}

TEST(StepDistanceAccuracyTest, HardCutoff) {
  StepDistanceAccuracy fn(10.0);
  const Task t{0, {0, 0}};
  EXPECT_DOUBLE_EQ(fn.Acc(MakeWorker(1, 9.99, 0, 0.9), t), 0.9);
  EXPECT_DOUBLE_EQ(fn.Acc(MakeWorker(1, 10.01, 0, 0.9), t), 0.0);
  EXPECT_DOUBLE_EQ(*fn.EligibleRadius(MakeWorker(1, 0, 0, 0.9), 0.66), 10.0);
  EXPECT_LT(*fn.EligibleRadius(MakeWorker(1, 0, 0, 0.5), 0.66), 0.0);
}

TEST(FlatAccuracyTest, IgnoresDistance) {
  FlatAccuracy fn;
  const Task t{0, {1000, 1000}};
  EXPECT_DOUBLE_EQ(fn.Acc(MakeWorker(1, 0, 0, 0.77), t), 0.77);
  EXPECT_FALSE(fn.EligibleRadius(MakeWorker(1, 0, 0, 0.77), 0.66).has_value());
}

// ---- Quality ----

TEST(QualityTest, DeltaFromEpsilon) {
  EXPECT_NEAR(DeltaFromEpsilon(0.2), 3.2189, 1e-4);  // paper Example 2
  EXPECT_NEAR(DeltaFromEpsilon(0.1), 4.6052, 1e-4);
  // The Hoeffding guarantee inverts: exp(-delta/2) is epsilon again.
  for (double eps : {0.06, 0.10, 0.14, 0.18, 0.22}) {
    EXPECT_NEAR(std::exp(-DeltaFromEpsilon(eps) / 2.0), eps, 1e-12);
  }
}

TEST(QualityTest, ReachedDeltaTolerance) {
  EXPECT_TRUE(ReachedDelta(1.0, 1.0));
  EXPECT_TRUE(ReachedDelta(1.0 - 1e-12, 1.0));  // within tolerance
  EXPECT_FALSE(ReachedDelta(0.999, 1.0));
}

TEST(QualityTest, TheoremTwoBounds) {
  // |T|=3, delta=3.2189, K=2 -> lower = 4.83, upper = 50.3.
  const auto b = TheoremTwoBounds(3, 3.2189, 2);
  EXPECT_NEAR(b.lower, 3 * 3.2189 / 2, 1e-9);
  EXPECT_NEAR(b.upper, 10 * 3 * 3.2189 / 2 + 3.0 / 2 + 1, 1e-9);
  EXPECT_LT(b.lower, b.upper);
}

// ---- ProblemInstance validation ----

StatusOr<ProblemInstance> SmallInstance() {
  gen::SyntheticConfig cfg;
  cfg.num_tasks = 10;
  cfg.num_workers = 200;
  cfg.grid_side = 100.0;
  cfg.seed = 3;
  return gen::GenerateSynthetic(cfg);
}

TEST(ProblemInstanceTest, ValidatesGoodInstance) {
  auto instance = SmallInstance();
  ASSERT_TRUE(instance.ok());
  EXPECT_TRUE(instance->Validate().ok());
  EXPECT_EQ(instance->num_tasks(), 10);
  EXPECT_EQ(instance->num_workers(), 200);
  EXPECT_NEAR(instance->Delta(), 4.6052, 1e-4);
  EXPECT_NE(instance->Summary().find("|T|=10"), std::string::npos);
}

TEST(ProblemInstanceTest, RejectsBadParameters) {
  auto instance = SmallInstance();
  ASSERT_TRUE(instance.ok());
  ProblemInstance bad = *instance;
  for (const double epsilon : {0.0, 1.0, -0.5}) {  // delta needs (0, 1)
    bad.epsilon = epsilon;
    EXPECT_FALSE(bad.Validate().ok()) << epsilon;
  }
  bad = *instance;
  bad.capacity = 0;
  EXPECT_FALSE(bad.Validate().ok());
  bad = *instance;
  bad.accuracy = nullptr;
  EXPECT_FALSE(bad.Validate().ok());
  bad = *instance;
  bad.tasks.Reset(0, 0);
  EXPECT_FALSE(bad.Validate().ok());
  bad = *instance;
  bad.worker(6).index = 99;  // out of sequence
  EXPECT_FALSE(bad.Validate().ok());
  bad = *instance;
  bad.task(2).id = 7;  // not dense
  EXPECT_FALSE(bad.Validate().ok());
  bad = *instance;
  bad.worker(1).historical_accuracy = 1.5;
  EXPECT_FALSE(bad.Validate().ok());
  bad.worker(1).historical_accuracy = std::nan("");
  EXPECT_FALSE(bad.Validate().ok());
}

TEST(ProblemInstanceTest, RetiresWorkersFromTheFront) {
  auto instance = SmallInstance();
  ASSERT_TRUE(instance.ok());
  ProblemInstance window = *instance;
  window.workers.RetireBefore(51);
  EXPECT_EQ(window.workers.first_id(), 51);
  EXPECT_EQ(window.num_workers(), 150);
  EXPECT_EQ(window.last_worker(), 200);
  EXPECT_FALSE(window.resident(50));
  EXPECT_TRUE(window.resident(51));
  EXPECT_TRUE(window.resident(200));
  EXPECT_FALSE(window.resident(201));
  EXPECT_EQ(window.worker(51).index, 51);
  EXPECT_TRUE(window.Validate().ok());
  for (TaskId t = 0; t < window.num_tasks(); ++t) {
    EXPECT_EQ(window.Acc(120, t), instance->Acc(120, t));
    EXPECT_EQ(window.AccStar(200, t), instance->AccStar(200, t));
  }
  window.workers.RetireBefore(10);  // already retired: no-op
  EXPECT_EQ(window.workers.first_id(), 51);
  window.workers.RetireBefore(201);  // everything
  EXPECT_EQ(window.num_workers(), 0);
  EXPECT_EQ(window.last_worker(), 200);

  // Indices no longer follow the window's ids.
  ProblemInstance bad = *instance;
  bad.workers = IdWindow<Worker, WorkerIndex>(50);
  for (const Worker& w : instance->workers) bad.workers.push_back(w);
  EXPECT_FALSE(bad.Validate().ok());
}

TEST(ProblemInstanceTest, RetiresTasksFromTheFront) {
  auto instance = SmallInstance();
  ASSERT_TRUE(instance.ok());
  ProblemInstance window = *instance;
  const std::int64_t all = instance->num_tasks();
  window.tasks.RetireBefore(3);
  EXPECT_EQ(window.tasks.first_id(), 3);
  EXPECT_EQ(window.num_tasks(), all);  // ids stay stable
  EXPECT_FALSE(window.task_resident(2));
  EXPECT_TRUE(window.task_resident(3));
  EXPECT_FALSE(window.task_resident(static_cast<TaskId>(all)));
  EXPECT_EQ(window.task(3).id, 3);
  EXPECT_TRUE(window.Validate().ok());
  for (TaskId t = 3; t < window.num_tasks(); ++t) {
    EXPECT_EQ(window.Acc(120, t), instance->Acc(120, t));
    EXPECT_EQ(window.AccStar(200, t), instance->AccStar(200, t));
  }
  window.tasks.RetireBefore(1);  // already retired: no-op
  EXPECT_EQ(window.tasks.first_id(), 3);

  // Ids no longer follow the window's ids.
  ProblemInstance bad = *instance;
  bad.tasks = IdWindow<Task, TaskId>(2);
  for (const Task& t : instance->tasks) bad.tasks.push_back(t);
  EXPECT_FALSE(bad.Validate().ok());
}

// ---- Arrangement ----

TEST(ArrangementTest, LoadWindowRetiresOldWorkers) {
  Arrangement arr(2, 10.0);
  arr.Add(1, 0, 0.5);
  arr.Add(2, 0, 0.5);
  arr.Add(2, 1, 0.5);
  arr.Add(5, 1, 0.5);
  EXPECT_EQ(arr.workers_used(), 3);
  arr.RetireWorkersBefore(3);
  EXPECT_EQ(arr.Load(1), 0);
  EXPECT_EQ(arr.Load(2), 0);
  EXPECT_EQ(arr.Load(5), 1);
  EXPECT_EQ(arr.workers_used(), 3);  // retired workers still count
  ASSERT_EQ(arr.size(), 1);          // ... but leave the list
  EXPECT_EQ(arr.assignments()[0].worker, 5);
  EXPECT_EQ(arr.accumulated(0), 1.0);
  arr.Add(6, 0, 0.5);
  arr.Add(5, 0, 0.5);
  EXPECT_EQ(arr.Load(5), 2);
  EXPECT_EQ(arr.Load(6), 1);
  EXPECT_EQ(arr.workers_used(), 4);
  EXPECT_EQ(arr.MaxWorkerIndex(), 6);
  arr.RetireWorkersBefore(10);  // past the window
  EXPECT_EQ(arr.Load(6), 0);
  arr.Add(10, 1, 0.5);
  EXPECT_EQ(arr.Load(10), 1);
  EXPECT_EQ(arr.workers_used(), 5);
  EXPECT_EQ(arr.size(), 1);
  EXPECT_EQ(arr.total_acc_star(), 3.5);
}

// A snapshot carries S and the counters, never an assignment list: the
// writer refuses while a listed worker is not retired, and a read starts
// the load window, empty, at the first resident worker.
TEST(ArrangementTest, SnapshotRefusesListedAssignments) {
  Arrangement arr(2, 10.0);
  arr.Add(1, 0, 0.5);
  arr.Add(2, 1, 0.25);
  std::string blob;
  StateArchive writer = StateArchive::Writer(&blob);
  EXPECT_TRUE(arr.Serialize(writer, 1, 2).IsFailedPrecondition());
  arr.RetireWorkersBefore(3);
  blob.clear();
  StateArchive retired = StateArchive::Writer(&blob);
  ASSERT_TRUE(arr.Serialize(retired, 3, 3).ok());
  EXPECT_EQ(blob, "arr 2 2 0.75\ns 0.5\ns 0.25\n");

  Arrangement restored(2, 10.0);
  StateArchive reader = StateArchive::Reader(blob);
  ASSERT_TRUE(restored.Serialize(reader, 3, 3).ok());
  ASSERT_TRUE(reader.End().ok());
  EXPECT_EQ(restored.accumulated(0), 0.5);
  EXPECT_EQ(restored.accumulated(1), 0.25);
  EXPECT_EQ(restored.workers_used(), 2);
  EXPECT_EQ(restored.MaxWorkerIndex(), 2);
  EXPECT_EQ(restored.total_acc_star(), 0.75);
  EXPECT_EQ(restored.size(), 0);
  restored.Add(3, 0, 0.5);
  EXPECT_EQ(restored.Load(3), 1);
  EXPECT_EQ(restored.workers_used(), 3);
}

// Closed tasks retire from the front of S: ids stay stable, the completed
// count keeps them, and a snapshot writes S for resident tasks only.
TEST(ArrangementTest, TaskWindowRetiresClosedTasks) {
  Arrangement arr(4, 1.0);
  arr.Add(1, 0, 1.0);
  arr.Add(1, 1, 1.0);
  arr.Add(2, 3, 0.5);
  EXPECT_EQ(arr.completed_tasks(), 2);
  arr.RetireTasksBefore(2);
  EXPECT_EQ(arr.num_tasks(), 4);
  EXPECT_EQ(arr.first_task(), 2);
  EXPECT_FALSE(arr.TaskCompleted(2));
  EXPECT_EQ(arr.accumulated(3), 0.5);
  EXPECT_EQ(arr.completed_tasks(), 2);
  EXPECT_EQ(arr.AddTask(), 4);
  arr.Add(3, 2, 1.0);
  arr.Add(3, 3, 0.5);
  EXPECT_EQ(arr.completed_tasks(), 4);
  arr.RetireWorkersBefore(4);

  std::string blob;
  StateArchive writer = StateArchive::Writer(&blob);
  ASSERT_TRUE(arr.Serialize(writer, 4, 3).ok());
  EXPECT_EQ(blob, "arr 3 3 4\ns 1\ns 1\ns 0\n");
  Arrangement restored(5, 1.0, /*first_task=*/2);
  StateArchive reader = StateArchive::Reader(blob);
  ASSERT_TRUE(restored.Serialize(reader, 4, 3).ok());
  ASSERT_TRUE(reader.End().ok());
  EXPECT_EQ(restored.first_task(), 2);
  EXPECT_EQ(restored.completed_tasks(), 4);
  EXPECT_FALSE(restored.AllCompleted());
  EXPECT_TRUE(restored.TaskCompleted(3));
  EXPECT_EQ(restored.accumulated(4), 0.0);
}

TEST(ArrangementTest, TracksAccumulationAndCompletion) {
  Arrangement arr(2, 1.0);
  EXPECT_FALSE(arr.AllCompleted());
  EXPECT_DOUBLE_EQ(arr.Remaining(0), 1.0);
  arr.Add(1, 0, 0.6);
  EXPECT_FALSE(arr.TaskCompleted(0));
  EXPECT_DOUBLE_EQ(arr.Remaining(0), 0.4);
  arr.Add(2, 0, 0.6);
  EXPECT_TRUE(arr.TaskCompleted(0));
  EXPECT_DOUBLE_EQ(arr.Remaining(0), 0.0);
  EXPECT_FALSE(arr.AllCompleted());
  arr.Add(2, 1, 1.0);
  EXPECT_TRUE(arr.AllCompleted());
  EXPECT_EQ(arr.MaxWorkerIndex(), 2);
  EXPECT_EQ(arr.Load(1), 1);
  EXPECT_EQ(arr.Load(2), 2);
  EXPECT_EQ(arr.Load(99), 0);
  EXPECT_EQ(arr.size(), 3);
  EXPECT_EQ(arr.completed_tasks(), 2);
}

TEST(ArrangementTest, ZeroDeltaIsInstantlyComplete) {
  Arrangement arr(3, 0.0);
  EXPECT_TRUE(arr.AllCompleted());
}

TEST(ValidateArrangementTest, AcceptsValidAndCatchesViolations) {
  auto instance_or = gen::PaperExampleInstance(0.2);
  ASSERT_TRUE(instance_or.ok());
  const auto& instance = instance_or.value();
  const double delta = instance.Delta();

  // Valid, completed arrangement: the paper's LAF outcome.
  Arrangement good(3, delta);
  const std::pair<WorkerIndex, TaskId> laf[] = {
      {1, 1}, {1, 0}, {2, 0}, {2, 1}, {3, 0}, {3, 1},
      {4, 0}, {4, 1}, {5, 2}, {6, 2}, {7, 2}, {8, 2}};
  for (auto [w, t] : laf) good.Add(w, t, instance.AccStar(w, t));
  EXPECT_TRUE(ValidateArrangement(instance, good, true).ok());

  // Capacity violation: worker 1 takes 3 tasks with K = 2.
  Arrangement over(3, delta);
  over.Add(1, 0, instance.AccStar(1, 0));
  over.Add(1, 1, instance.AccStar(1, 1));
  over.Add(1, 2, instance.AccStar(1, 2));
  EXPECT_TRUE(
      ValidateArrangement(instance, over, false).IsFailedPrecondition());

  // Duplicate pair.
  Arrangement dup(3, delta);
  dup.Add(1, 0, instance.AccStar(1, 0));
  dup.Add(1, 0, instance.AccStar(1, 0));
  EXPECT_TRUE(
      ValidateArrangement(instance, dup, false).IsFailedPrecondition());

  // Wrong Acc* recorded.
  Arrangement wrong(3, delta);
  wrong.Add(1, 0, 0.123);
  EXPECT_TRUE(ValidateArrangement(instance, wrong, false).IsInternal());

  // Out-of-range ids.
  Arrangement range(3, delta);
  range.Add(99, 0, 0.5);
  EXPECT_TRUE(ValidateArrangement(instance, range, false).IsOutOfRange());

  // Incomplete fails only when completion demanded.
  Arrangement partial(3, delta);
  partial.Add(1, 0, instance.AccStar(1, 0));
  EXPECT_TRUE(ValidateArrangement(instance, partial, false).ok());
  EXPECT_TRUE(
      ValidateArrangement(instance, partial, true).IsFailedPrecondition());
}

// A streaming pipeline's instance and arrangement hold windows that start
// above the first ids (tasks from 3, workers from 151 here): the
// validator's per-task and per-worker scratch follows those windows.
TEST(ValidateArrangementTest, WindowsStartingAboveTheFirstIds) {
  auto instance = SmallInstance();
  ASSERT_TRUE(instance.ok());
  ProblemInstance window = *instance;
  window.tasks.RetireBefore(3);
  window.workers.RetireBefore(151);
  ASSERT_TRUE(window.Validate().ok());
  const double delta = window.Delta();

  // Every eligible resident pair, at most K per worker; `pair` keeps a
  // worker with two of them.
  Arrangement arr(window.num_tasks(), delta, /*first_task=*/3);
  std::int64_t added = 0;
  std::pair<WorkerIndex, std::vector<TaskId>> pair{0, {}};
  for (WorkerIndex w = 151; w <= window.last_worker(); ++w) {
    std::vector<TaskId> mine;
    for (TaskId t = 3; t < window.num_tasks(); ++t) {
      if (static_cast<std::int32_t>(mine.size()) == window.capacity) break;
      if (!window.Eligible(w, t)) continue;
      arr.Add(w, t, window.AccStar(w, t));
      mine.push_back(t);
      ++added;
    }
    if (mine.size() >= 2 && pair.first == 0) pair = {w, mine};
  }
  ASSERT_GT(added, 0);
  ASSERT_NE(pair.first, 0);
  EXPECT_TRUE(ValidateArrangement(window, arr, false).ok());
  EXPECT_EQ(ValidateArrangement(window, arr, true).ok(), arr.AllCompleted());

  // Completion is checked from the first resident task on.
  const Arrangement empty(window.num_tasks(), delta, /*first_task=*/3);
  const Status incomplete = ValidateArrangement(window, empty, true);
  EXPECT_TRUE(incomplete.IsFailedPrecondition());
  EXPECT_NE(incomplete.ToString().find("task 3 incomplete"),
            std::string::npos)
      << incomplete.ToString();

  // Capacity counts through the worker window.
  ProblemInstance strict = window;
  strict.capacity = 1;
  Arrangement over(window.num_tasks(), delta, /*first_task=*/3);
  for (TaskId t : pair.second) {
    over.Add(pair.first, t, window.AccStar(pair.first, t));
  }
  EXPECT_TRUE(
      ValidateArrangement(strict, over, false).IsFailedPrecondition());

  // A retired worker or task is out of range.
  Arrangement retired_worker(window.num_tasks(), delta, /*first_task=*/3);
  retired_worker.Add(150, pair.second[0], 0.5);
  EXPECT_TRUE(
      ValidateArrangement(window, retired_worker, false).IsOutOfRange());
  Arrangement retired_task(window.num_tasks(), delta, /*first_task=*/0);
  retired_task.Add(pair.first, 2, 0.5);
  EXPECT_TRUE(ValidateArrangement(window, retired_task, false).IsOutOfRange());
}

TEST(ValidateCommitRoundTest, AcceptsRoundsAndCatchesEachViolation) {
  auto instance_or = gen::PaperExampleInstance(0.2);
  ASSERT_TRUE(instance_or.ok());
  ProblemInstance instance = instance_or.value();
  ASSERT_EQ(instance.capacity, 2);
  const double delta = instance.Delta();

  // Two good rounds; the first round's workers then retire.
  Arrangement arr(3, delta);
  arr.Add(1, 1, instance.AccStar(1, 1));
  arr.Add(2, 0, instance.AccStar(2, 0));
  arr.Add(1, 0, instance.AccStar(1, 0));
  EXPECT_TRUE(ValidateCommitRound(instance, arr, 0).ok());
  instance.workers.RetireBefore(3);
  arr.RetireWorkersBefore(3);  // the list drops their three entries
  arr.Add(3, 0, instance.AccStar(3, 0));
  EXPECT_TRUE(ValidateCommitRound(instance, arr, 0).ok());
  EXPECT_TRUE(ValidateCommitRound(instance, arr, 1).ok());  // empty round

  // Each violation, one corrupted commit appended to a copy of `arr`.
  const auto check = [&](const ProblemInstance& inst, WorkerIndex w, TaskId t,
                         double acc_star) {
    Arrangement bad = arr;
    bad.Add(w, t, acc_star);
    return ValidateCommitRound(inst, bad, 1);
  };
  // A retired worker, and one that never arrived.
  EXPECT_TRUE(check(instance, 2, 1, 0.5).IsOutOfRange());
  EXPECT_TRUE(check(instance, 99, 1, 0.5).IsOutOfRange());
  // A task out of the instance's range.
  ProblemInstance fewer = instance;
  fewer.tasks = IdWindow<Task, TaskId>();
  fewer.tasks.push_back(instance.task(0));
  fewer.tasks.push_back(instance.task(1));
  EXPECT_TRUE(check(fewer, 4, 2, 0.5).IsOutOfRange());
  // A recorded Acc* the model disagrees with.
  EXPECT_TRUE(check(instance, 4, 1, 0.123).IsInternal());
  // An ineligible pair.
  ProblemInstance strict = instance;
  strict.acc_min = 0.999;
  EXPECT_TRUE(check(strict, 4, 1, instance.AccStar(4, 1))
                  .IsFailedPrecondition());
  // Worker 3 committed again after its round.
  EXPECT_TRUE(check(instance, 3, 1, instance.AccStar(3, 1))
                  .IsFailedPrecondition());

  // A duplicate pair and a capacity overflow inside one round.
  Arrangement dup = arr;
  dup.Add(4, 1, instance.AccStar(4, 1));
  dup.Add(4, 1, instance.AccStar(4, 1));
  EXPECT_TRUE(ValidateCommitRound(instance, dup, 1).IsFailedPrecondition());
  Arrangement over = arr;
  for (TaskId t : {0, 1, 2}) over.Add(5, t, instance.AccStar(5, t));
  EXPECT_TRUE(ValidateCommitRound(instance, over, 1).IsFailedPrecondition());
}

// ---- EligibilityIndex ----

TEST(EligibilityIndexTest, SpatialMatchesBruteForce) {
  auto instance_or = SmallInstance();
  ASSERT_TRUE(instance_or.ok());
  const auto& instance = instance_or.value();
  auto index_or = EligibilityIndex::Build(&instance);
  ASSERT_TRUE(index_or.ok());
  const auto& index = index_or.value();
  EXPECT_TRUE(index.spatial());

  std::vector<TaskId> got;
  std::vector<TaskId> got_sorted;
  for (const Worker& w : instance.workers) {
    index.EligibleTasks(w, &got);
    std::sort(got.begin(), got.end());  // EligibleTasks order is unspecified
    index.EligibleTasksSorted(w, &got_sorted);
    std::vector<TaskId> expect;
    for (const Task& t : instance.tasks) {
      if (instance.Eligible(w.index, t.id)) expect.push_back(t.id);
    }
    ASSERT_EQ(got, expect) << "worker " << w.index;
    ASSERT_EQ(got_sorted, expect) << "worker " << w.index;
    std::int64_t count = 0;  // the allocation-free path, without ids
    index.ForEachEligible(w, [&count](TaskId) { ++count; });
    EXPECT_EQ(count, static_cast<std::int64_t>(expect.size()));
  }
}

TEST(EligibilityIndexTest, MatrixModelFallsBackToScan) {
  auto instance_or = gen::PaperExampleInstance(0.2);
  ASSERT_TRUE(instance_or.ok());
  auto index_or = EligibilityIndex::Build(&instance_or.value());
  ASSERT_TRUE(index_or.ok());
  EXPECT_FALSE(index_or->spatial());
  std::vector<TaskId> got;
  index_or->EligibleTasks(instance_or->worker(1), &got);
  // All Table-I accuracies exceed 0.66: every task eligible for w1.
  EXPECT_EQ(got, (std::vector<TaskId>{0, 1, 2}));
}

TEST(EligibilityIndexTest, RejectsNullAndInvalid) {
  EXPECT_FALSE(EligibilityIndex::Build(nullptr).ok());
  ProblemInstance bad;
  EXPECT_FALSE(EligibilityIndex::Build(&bad).ok());
}

// ---- Voting ----

TEST(VotingTest, HighAccuracyWorkersBeatEpsilon) {
  auto instance_or = gen::PaperExampleInstance(0.2);
  ASSERT_TRUE(instance_or.ok());
  const auto& instance = instance_or.value();
  Arrangement arr(3, instance.Delta());
  const std::pair<WorkerIndex, TaskId> laf[] = {
      {1, 1}, {1, 0}, {2, 0}, {2, 1}, {3, 0}, {3, 1},
      {4, 0}, {4, 1}, {5, 2}, {6, 2}, {7, 2}, {8, 2}};
  for (auto [w, t] : laf) arr.Add(w, t, instance.AccStar(w, t));

  auto outcome = SimulateVoting(instance, arr, 2000, 11);
  ASSERT_TRUE(outcome.ok());
  EXPECT_EQ(outcome->tasks, 3);
  EXPECT_EQ(outcome->trials, 2000);
  // Hoeffding promises < 0.2; with 4 workers at ~0.95 accuracy the true
  // error rate is far below it.
  EXPECT_LT(outcome->empirical_error_rate, 0.2);
  EXPECT_LT(outcome->max_task_error_rate, 0.2);
}

TEST(VotingTest, EmptyArrangementAndBadArgs) {
  auto instance_or = gen::PaperExampleInstance(0.2);
  ASSERT_TRUE(instance_or.ok());
  Arrangement empty(3, instance_or->Delta());
  auto outcome = SimulateVoting(*instance_or, empty, 10, 1);
  ASSERT_TRUE(outcome.ok());
  EXPECT_EQ(outcome->tasks, 0);
  EXPECT_DOUBLE_EQ(outcome->empirical_error_rate, 0.0);
  EXPECT_FALSE(SimulateVoting(*instance_or, empty, 0, 1).ok());
}

TEST(VotingTest, DeterministicForSeed) {
  auto instance_or = gen::PaperExampleInstance(0.2);
  ASSERT_TRUE(instance_or.ok());
  const auto& instance = instance_or.value();
  Arrangement arr(3, instance.Delta());
  arr.Add(1, 0, instance.AccStar(1, 0));
  arr.Add(2, 0, instance.AccStar(2, 0));
  auto a = SimulateVoting(instance, arr, 500, 99);
  auto b = SimulateVoting(instance, arr, 500, 99);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a->errors, b->errors);
}

}  // namespace
}  // namespace model
}  // namespace ltc
