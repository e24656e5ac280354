// Tests of `ltc_serve --algo=MCF`: the MCF-LTC batch loop behind the batch
// streaming protocol (algo/mcf_stream.h). Pins the two contracts DESIGN.md
// section 10 states for the svc path:
//
//  * determinism — the assignment log is byte-identical with the drift
//    check on and off, and pinned per --shards;
//  * offline parity — over an EventLogFromInstance replay at batching
//    deadline 0 the admitted worker sequence is exactly the offline worker
//    order against a fully materialised task set, so the streamed
//    commitments reproduce McfLtc::Run batch for batch, whether the
//    offline run solves warm or cold (warm starts are an optimisation, not
//    a policy change).

#include <algorithm>
#include <vector>

#include "algo/mcf_ltc.h"
#include "algo/mcf_stream.h"
#include "gen/stream.h"
#include "gen/synthetic.h"
#include "io/event_log.h"
#include "model/eligibility.h"
#include "svc/serve_main.h"
#include "svc/stream_engine.h"
#include "gtest/gtest.h"

namespace ltc {
namespace svc {
namespace {

gen::StreamConfig SmallStream(std::uint64_t seed = 11) {
  gen::StreamConfig cfg;
  cfg.num_tasks = 60;
  cfg.num_workers = 3000;
  cfg.task_rate = 30.0;
  cfg.worker_rate = 300.0;
  cfg.seed = seed;
  return cfg;
}

StreamOptions McfOptions(double deadline) {
  StreamOptions options;
  options.algorithm = "MCF";
  options.batch_deadline = deadline;
  return options;
}

// Deadline-0 admission over an EventLogFromInstance stream feeds MCF the
// instance's worker order against a fully materialised task set, so the
// Theorem-2 batch boundaries — and every flow solve between them — match
// the offline run exactly. This mirrors DeadlineZeroMatchesRunOnline
// (svc_stream_test.cc) for the batch streaming protocol.
TEST(McfStreamParityTest, DeadlineZeroMatchesOfflineMcfLtc) {
  gen::SyntheticConfig synth;
  synth.num_tasks = 50;
  synth.num_workers = 2500;
  synth.seed = 9;
  auto instance = gen::GenerateSynthetic(synth);
  ASSERT_TRUE(instance.ok());
  auto index = model::EligibilityIndex::Build(&instance.value());
  ASSERT_TRUE(index.ok());

  algo::McfLtc mcf;
  auto offline = mcf.Run(instance.value(), index.value());
  ASSERT_TRUE(offline.ok()) << offline.status().ToString();

  auto log = io::EventLogFromInstance(instance.value());
  ASSERT_TRUE(log.ok());
  std::vector<StreamAssignment> streamed;
  auto replay = ReplayEventLog(log.value(), McfOptions(0.0), &streamed);
  ASSERT_TRUE(replay.ok()) << replay.status().ToString();

  // Offline stops at completion; the stream serves the whole log but the
  // scheduler drains every later batch unassigned once all tasks reached
  // delta, so the committed sequences agree assignment for assignment.
  const model::Arrangement& arr = offline.value().arrangement;
  ASSERT_EQ(static_cast<std::int64_t>(streamed.size()), arr.size());
  for (std::size_t i = 0; i < streamed.size(); ++i) {
    EXPECT_EQ(streamed[i].worker, arr.assignments()[i].worker);
    EXPECT_EQ(streamed[i].task, arr.assignments()[i].task);
  }
  EXPECT_EQ(replay.value().run.latency, offline.value().latency);
  EXPECT_EQ(replay.value().run.completed, offline.value().completed);
  EXPECT_TRUE(replay.value().stream.validated);
  EXPECT_EQ(replay.value().stream.assignment_latency.count, arr.size());
}

// Warm starts carry flow and potentials across batch solves but must not
// change a single commitment: the (always warm) service log matches an
// offline run that solves every batch from scratch.
TEST(McfStreamParityTest, ColdOfflineSolvesMatchTheService) {
  gen::SyntheticConfig synth;
  synth.num_tasks = 40;
  synth.num_workers = 2000;
  synth.seed = 17;
  auto instance = gen::GenerateSynthetic(synth);
  ASSERT_TRUE(instance.ok());
  auto index = model::EligibilityIndex::Build(&instance.value());
  ASSERT_TRUE(index.ok());

  algo::McfLtcOptions cold;
  cold.warm_start = false;
  algo::McfLtc mcf(cold);
  auto offline = mcf.Run(instance.value(), index.value());
  ASSERT_TRUE(offline.ok()) << offline.status().ToString();

  auto log = io::EventLogFromInstance(instance.value());
  ASSERT_TRUE(log.ok());
  std::vector<StreamAssignment> streamed;
  auto replay = ReplayEventLog(log.value(), McfOptions(0.0), &streamed);
  ASSERT_TRUE(replay.ok()) << replay.status().ToString();

  const model::Arrangement& arr = offline.value().arrangement;
  ASSERT_EQ(static_cast<std::int64_t>(streamed.size()), arr.size());
  for (std::size_t i = 0; i < streamed.size(); ++i) {
    EXPECT_EQ(streamed[i].worker, arr.assignments()[i].worker);
    EXPECT_EQ(streamed[i].task, arr.assignments()[i].task);
  }
}

// The service determinism contract, for the batch protocol: the periodic
// drift check leaves the assignment log byte-identical.
TEST(McfServeDeterminismTest, LogIdenticalWithDriftCheck) {
  auto log = gen::GenerateStreamEvents(SmallStream(7));
  ASSERT_TRUE(log.ok());

  StreamOptions options = McfOptions(0.4);
  auto one = RunService(log.value(), options);
  ASSERT_TRUE(one.ok()) << one.status().ToString();
  EXPECT_GT(one.value().metrics.assignments, 0);

  options.mcf_drift_check_every = 3;
  auto checked = RunService(log.value(), options);
  ASSERT_TRUE(checked.ok()) << checked.status().ToString();
  EXPECT_EQ(one.value().assignment_log, checked.value().assignment_log);
}

// Sharded MCF: each shard runs its own persistent incremental solver, and
// every commit round validates at two and four shards.
TEST(McfServeDeterminismTest, ShardedRunsValidate) {
  auto log = gen::GenerateStreamEvents(SmallStream(13));
  ASSERT_TRUE(log.ok());

  StreamOptions options = McfOptions(0.4);
  options.shards = 2;
  auto one = RunService(log.value(), options);
  ASSERT_TRUE(one.ok()) << one.status().ToString();
  EXPECT_GT(one.value().metrics.assignments, 0);
  EXPECT_TRUE(one.value().metrics.validated);

  options.shards = 4;
  auto wide = RunService(log.value(), options);
  ASSERT_TRUE(wide.ok()) << wide.status().ToString();
  EXPECT_GT(wide.value().metrics.assignments, 0);
  EXPECT_TRUE(wide.value().metrics.validated);
}

// A deadline-batched single-shard run completes tasks and validates against
// the full LTC constraint set (capacity, eligibility, accuracy accounting).
// MCF holds a closed task while it may still read it (DESIGN.md §8, task
// lifetime): while its buffered candidate lists name the task, and after a
// flush completed it, until the next flush's demand refresh zeroes its
// node's deficit. Fed one worker per call, right after a flush the buffer is
// empty and the oldest held task is the oldest one that flush completed.
TEST(McfStreamTest, HoldsTasksUntilTheirDemandNodeIsZeroed) {
  gen::SyntheticConfig synth;
  synth.num_tasks = 50;
  synth.num_workers = 2500;
  synth.seed = 9;
  auto instance = gen::GenerateSynthetic(synth);
  ASSERT_TRUE(instance.ok());
  auto index = model::EligibilityIndex::Build(&instance.value());
  ASSERT_TRUE(index.ok());
  algo::McfStream mcf;
  ASSERT_TRUE(mcf.InitStreaming(instance.value()).ok());
  EXPECT_EQ(mcf.OldestHeldTask(), -1);
  std::vector<model::TaskId> eligible;
  std::vector<algo::OnlineScheduler::StreamCommit> commits;
  int checked = 0;
  for (const model::Worker& w : instance.value().workers) {
    if (mcf.Done()) break;
    index.value().EligibleTasksSorted(w, &eligible);
    commits.clear();
    const std::int64_t solved = mcf.batches_solved();
    ASSERT_TRUE(mcf.OnBatchWithCandidates({w.index}, {&eligible}, &commits)
                    .ok());
    if (mcf.batches_solved() == solved) {
      // Buffering: every candidate the call took is held.
      if (!eligible.empty()) {
        EXPECT_GE(mcf.OldestHeldTask(), 0);
        EXPECT_LE(mcf.OldestHeldTask(), eligible.front());
      }
      continue;
    }
    model::TaskId expected = -1;
    for (const auto& c : commits) {
      if (mcf.arrangement().TaskCompleted(c.task) &&
          (expected < 0 || c.task < expected)) {
        expected = c.task;
      }
    }
    EXPECT_EQ(mcf.OldestHeldTask(), expected) << "worker " << w.index;
    checked += expected >= 0 ? 1 : 0;
  }
  EXPECT_GT(checked, 0);
}

TEST(McfServeTest, BatchedRunValidates) {
  auto log = gen::GenerateStreamEvents(SmallStream(29));
  ASSERT_TRUE(log.ok());

  std::vector<StreamAssignment> streamed;
  auto replay = ReplayEventLog(log.value(), McfOptions(0.5), &streamed);
  ASSERT_TRUE(replay.ok()) << replay.status().ToString();
  EXPECT_GT(replay.value().stream.assignments, 0);
  EXPECT_GT(replay.value().stream.batches, 0);
  EXPECT_TRUE(replay.value().stream.validated);
  // Commit times never precede the flush that produced them and are
  // monotone — the log replays as a valid service trace.
  double last = 0.0;
  for (const StreamAssignment& a : streamed) {
    EXPECT_GE(a.time, last);
    last = a.time;
  }
}

}  // namespace
}  // namespace svc
}  // namespace ltc
