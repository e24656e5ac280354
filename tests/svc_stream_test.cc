// Tests of the streaming service layer: the ltc-events v1 codec, the
// Poisson stream generator, the engine's micro-batch admission, the
// RunOnline-equivalence of deadline-0 admission, and the ltc_serve replay
// determinism contract (byte-identical assignment logs for any --threads).

#include <memory>
#include <vector>

#include "algo/registry.h"
#include "gen/stream.h"
#include "gen/synthetic.h"
#include "io/event_log.h"
#include "model/eligibility.h"
#include "sim/engine.h"
#include "sim/metrics.h"
#include "svc/serve_main.h"
#include "svc/sharded_engine.h"
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

TEST(EventLogTest, RoundTripsThroughText) {
  auto generated = gen::GenerateStreamEvents(SmallStream());
  ASSERT_TRUE(generated.ok()) << generated.status().ToString();
  const io::EventLog& log = generated.value();
  EXPECT_EQ(log.num_events(), 60 + 3000);

  auto text = io::SerializeEventLog(log);
  ASSERT_TRUE(text.ok()) << text.status().ToString();
  auto parsed = io::ParseEventLog(text.value());
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  auto text2 = io::SerializeEventLog(parsed.value());
  ASSERT_TRUE(text2.ok());
  EXPECT_EQ(text.value(), text2.value());
}

TEST(EventLogTest, GenerationIsDeterministic) {
  auto a = gen::GenerateStreamEvents(SmallStream(3));
  auto b = gen::GenerateStreamEvents(SmallStream(3));
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(io::SerializeEventLog(a.value()).value(),
            io::SerializeEventLog(b.value()).value());
}

TEST(EventLogTest, ValidateRejectsMalformedStreams) {
  io::EventLog log;
  log.accuracy = std::make_shared<model::SigmoidDistanceAccuracy>(30.0);

  io::Event task;
  task.kind = io::Event::Kind::kTaskArrival;
  task.time = 1.0;
  io::Event early;
  early.kind = io::Event::Kind::kWorkerArrival;
  early.time = 0.5;
  early.accuracy = 0.9;
  log.events = {task, early};
  EXPECT_TRUE(log.Validate().IsInvalidArgument());  // decreasing time

  io::Event move;
  move.kind = io::Event::Kind::kTaskMove;
  move.time = 2.0;
  move.task = 7;  // never arrived
  log.events = {task, move};
  EXPECT_TRUE(log.Validate().IsInvalidArgument());

  move.task = 0;
  log.events = {task, move};
  EXPECT_TRUE(log.Validate().ok());
}

TEST(EventLogTest, MoveEventsRoundTrip) {
  gen::StreamConfig cfg = SmallStream(5);
  cfg.move_fraction = 0.5;
  auto generated = gen::GenerateStreamEvents(cfg);
  ASSERT_TRUE(generated.ok()) << generated.status().ToString();
  std::int64_t moves = 0;
  for (const io::Event& e : generated.value().events) {
    if (e.kind == io::Event::Kind::kTaskMove) ++moves;
  }
  EXPECT_GT(moves, 0);
  auto text = io::SerializeEventLog(generated.value());
  ASSERT_TRUE(text.ok());
  auto parsed = io::ParseEventLog(text.value());
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
}

// Deadline-0 admission over an EventLogFromInstance stream is per-arrival
// admission of exactly the instance's worker order against a fully
// materialised task set — it must reproduce sim::RunOnline's arrangement
// assignment for assignment.
TEST(StreamEngineTest, DeadlineZeroMatchesRunOnline) {
  gen::SyntheticConfig synth;
  synth.num_tasks = 50;
  synth.num_workers = 2500;
  synth.seed = 9;
  auto instance = gen::GenerateSynthetic(synth);
  ASSERT_TRUE(instance.ok());
  auto index = model::EligibilityIndex::Build(&instance.value());
  ASSERT_TRUE(index.ok());
  auto log = io::EventLogFromInstance(instance.value());
  ASSERT_TRUE(log.ok());

  for (const char* algorithm : {"LAF", "AAM"}) {
    auto scheduler = algo::MakeOnlineScheduler(algorithm, /*seed=*/42);
    ASSERT_TRUE(scheduler.ok());
    auto batch =
        sim::RunOnline(instance.value(), index.value(), scheduler->get());
    ASSERT_TRUE(batch.ok()) << batch.status().ToString();

    StreamOptions options;
    options.algorithm = algorithm;
    options.batch_deadline = 0.0;
    std::vector<StreamAssignment> streamed;
    auto replay = ReplayEventLog(log.value(), options, &streamed);
    ASSERT_TRUE(replay.ok()) << replay.status().ToString();

    // RunOnline stops at completion; the stream serves the whole log but
    // cannot assign anything once every task is closed, so the committed
    // assignment sequences agree exactly.
    const model::Arrangement& arr = (*scheduler)->arrangement();
    ASSERT_EQ(static_cast<std::int64_t>(streamed.size()), arr.size())
        << algorithm;
    for (std::size_t i = 0; i < streamed.size(); ++i) {
      EXPECT_EQ(streamed[i].worker, arr.assignments()[i].worker) << algorithm;
      EXPECT_EQ(streamed[i].task, arr.assignments()[i].task) << algorithm;
    }
    EXPECT_EQ(replay.value().run.latency, batch.value().latency) << algorithm;
    EXPECT_EQ(replay.value().run.completed, batch.value().completed)
        << algorithm;
    EXPECT_TRUE(replay.value().stream.validated) << algorithm;
    EXPECT_EQ(replay.value().stream.assignment_latency.count, arr.size())
        << algorithm;
  }
}

TEST(StreamEngineTest, DeadlineBatchesAndMaxBatchBound) {
  auto log = gen::GenerateStreamEvents(SmallStream(21));
  ASSERT_TRUE(log.ok());

  StreamOptions options;
  options.algorithm = "AAM";
  options.batch_deadline = 0.5;
  auto replay = ReplayEventLog(log.value(), options);
  ASSERT_TRUE(replay.ok()) << replay.status().ToString();
  const StreamMetrics& m = replay.value().stream;
  // ~300 workers arrive per deadline window, so admission is heavily
  // batched: far fewer batches than workers, and real batch sizes.
  EXPECT_LT(m.batches, m.worker_events / 10);
  EXPECT_GT(m.max_batch_size, 10);
  EXPECT_GT(m.tasks_completed, 0);
  EXPECT_TRUE(m.validated);
  EXPECT_EQ(m.assignments, m.assignment_latency.count);
  EXPECT_EQ(m.tasks_completed, m.completion_latency.count);
  EXPECT_LE(m.assignment_latency.p50, m.assignment_latency.p95);
  EXPECT_LE(m.assignment_latency.p95, m.assignment_latency.p99);
  EXPECT_LE(m.assignment_latency.p99, m.assignment_latency.max);

  options.max_batch = 25;
  auto capped = ReplayEventLog(log.value(), options);
  ASSERT_TRUE(capped.ok());
  EXPECT_LE(capped.value().stream.max_batch_size, 25);
  EXPECT_GT(capped.value().stream.batches, m.batches);
}

TEST(StreamEngineTest, MoveEventsRelocateOpenTasks) {
  gen::StreamConfig cfg = SmallStream(33);
  cfg.move_fraction = 0.4;
  auto log = gen::GenerateStreamEvents(cfg);
  ASSERT_TRUE(log.ok());

  StreamOptions options;
  options.algorithm = "LAF";
  options.batch_deadline = 0.25;
  auto replay = ReplayEventLog(log.value(), options);
  ASSERT_TRUE(replay.ok()) << replay.status().ToString();
  EXPECT_GT(replay.value().stream.move_events, 0);
  // Moved tasks make post-hoc Acc* validation unsound, so the engine skips
  // it and says so.
  EXPECT_FALSE(replay.value().stream.validated);
  EXPECT_GT(replay.value().stream.tasks_completed, 0);
}

// The acceptance-criteria contract: an identical event log and seed produce
// a byte-identical assignment log for any --threads value.
TEST(ServeDeterminismTest, AssignmentLogIdenticalAcrossThreadCounts) {
  for (const char* algo : {"LAF", "AAM", "Random"}) {
    gen::StreamConfig cfg = SmallStream(77);
    cfg.move_fraction = 0.1;
    auto log = gen::GenerateStreamEvents(cfg);
    ASSERT_TRUE(log.ok());

    StreamOptions options;
    options.algorithm = algo;
    options.batch_deadline = 0.4;
    options.seed = 123;

    options.threads = 1;
    auto one = RunService(log.value(), options);
    ASSERT_TRUE(one.ok()) << one.status().ToString();
    options.threads = 4;
    auto four = RunService(log.value(), options);
    ASSERT_TRUE(four.ok()) << four.status().ToString();

    EXPECT_EQ(one.value().assignment_log, four.value().assignment_log)
        << "algorithm " << algo;
    EXPECT_GT(one.value().metrics.assignments, 0) << "algorithm " << algo;
  }
}

// The adaptive deadline policy (DESIGN.md §13) must keep the determinism
// contract — byte-identical assignment logs for any --threads, per shard
// count — while actually exercising both sides of the forecast's wager
// (quiet-cell immediate flushes AND hot-cell extensions).
TEST(ServeDeterminismTest, AdaptiveDeadlineLogIdenticalAcrossThreadCounts) {
  gen::StreamConfig cfg = SmallStream(91);
  cfg.num_hotspots = 3;
  auto log = gen::GenerateStreamEvents(cfg);
  ASSERT_TRUE(log.ok());

  for (int shards : {1, 2}) {
    StreamOptions options;
    options.algorithm = "LAF";
    options.deadline_policy = DeadlinePolicy::kAdaptive;
    options.batch_deadline = 0.5;  // the hard cap
    options.seed = 123;
    options.shards = shards;

    options.threads = 1;
    auto one = RunService(log.value(), options);
    ASSERT_TRUE(one.ok()) << one.status().ToString();
    options.threads = 4;
    auto four = RunService(log.value(), options);
    ASSERT_TRUE(four.ok()) << four.status().ToString();

    EXPECT_EQ(one.value().assignment_log, four.value().assignment_log)
        << "shards " << shards;
    // The adaptive configuration is recorded in the log header, so a log
    // can never be mistaken for a fixed-deadline run's.
    EXPECT_NE(one.value().assignment_log.find("policy adaptive"),
              std::string::npos);
    EXPECT_GT(one.value().metrics.quiet_flushes, 0) << "shards " << shards;
    EXPECT_GT(one.value().metrics.deadline_extensions, 0)
        << "shards " << shards;
    EXPECT_GT(one.value().metrics.assignments, 0) << "shards " << shards;
  }
}

TEST(StreamEngineTest, AdaptivePolicyRequiresPositiveCap) {
  auto log = gen::GenerateStreamEvents(SmallStream(2));
  ASSERT_TRUE(log.ok());
  StreamOptions options;
  options.algorithm = "LAF";
  options.deadline_policy = DeadlinePolicy::kAdaptive;
  options.batch_deadline = 0.0;
  EXPECT_TRUE(RunService(log.value(), options).status().IsInvalidArgument());
}

TEST(StreamEngineTest, RejectsOfflineSchedulersAndBadEvents) {
  auto log = gen::GenerateStreamEvents(SmallStream(2));
  ASSERT_TRUE(log.ok());

  StreamOptions offline;
  offline.algorithm = "MCF-LTC";
  EXPECT_TRUE(ShardedStreamEngine::Create(log.value(), offline)
                  .status()
                  .IsInvalidArgument());

  StreamOptions options;
  io::EventLog no_model = log.value();
  no_model.accuracy = nullptr;
  EXPECT_TRUE(ShardedStreamEngine::Create(no_model, options)
                  .status()
                  .IsInvalidArgument());

  auto engine = ShardedStreamEngine::Create(log.value(), options);
  ASSERT_TRUE(engine.ok());
  io::Event e;
  e.kind = io::Event::Kind::kWorkerArrival;
  e.time = 5.0;
  e.accuracy = 0.9;
  ASSERT_TRUE(engine.value()->OnEvent(e).ok());
  e.time = 4.0;  // clock must not run backwards
  EXPECT_TRUE(engine.value()->OnEvent(e).IsInvalidArgument());
  e.kind = io::Event::Kind::kTaskMove;
  e.time = 6.0;
  e.task = 3;  // no task has arrived
  EXPECT_TRUE(engine.value()->OnEvent(e).IsInvalidArgument());
}

TEST(LatencySummaryTest, NearestRankPercentiles) {
  std::vector<double> samples;
  for (int i = 100; i >= 1; --i) samples.push_back(static_cast<double>(i));
  const sim::LatencySummary s = sim::SummarizeLatencies(&samples);
  EXPECT_EQ(s.count, 100);
  EXPECT_DOUBLE_EQ(s.mean, 50.5);
  EXPECT_DOUBLE_EQ(s.p50, 50.0);
  EXPECT_DOUBLE_EQ(s.p95, 95.0);
  EXPECT_DOUBLE_EQ(s.p99, 99.0);
  EXPECT_DOUBLE_EQ(s.max, 100.0);

  std::vector<double> empty;
  const sim::LatencySummary zero = sim::SummarizeLatencies(&empty);
  EXPECT_EQ(zero.count, 0);
  EXPECT_DOUBLE_EQ(zero.max, 0.0);
}

// Regression for the nearest-rank rank computation: q*n products that are
// meant to be integral must not overshoot their rank through the FP
// representation of q (0.95 and 0.99 are not exact doubles), and tiny q*n
// must clamp to rank 1, never rank 0. Pinned at n = 1, 2, 100.
TEST(LatencySummaryTest, NearestRankExactAtIntegralProducts) {
  // n = 1: every percentile is the single sample.
  std::vector<double> one = {7.5};
  const sim::LatencySummary s1 = sim::SummarizeLatencies(&one);
  EXPECT_DOUBLE_EQ(s1.p50, 7.5);
  EXPECT_DOUBLE_EQ(s1.p95, 7.5);
  EXPECT_DOUBLE_EQ(s1.p99, 7.5);

  // n = 2: p50 has the integral product 0.5 * 2 = 1 — it must pick the
  // *first* sample (rank 1), not round up to the second; p95/p99 round the
  // fractional 1.9/1.98 up to rank 2.
  std::vector<double> two = {3.0, 9.0};
  const sim::LatencySummary s2 = sim::SummarizeLatencies(&two);
  EXPECT_DOUBLE_EQ(s2.p50, 3.0);
  EXPECT_DOUBLE_EQ(s2.p95, 9.0);
  EXPECT_DOUBLE_EQ(s2.p99, 9.0);

  // n = 100: all three products are integral (50, 95, 99) and must land
  // exactly on those ranks for any FP representation of q.
  std::vector<double> hundred;
  for (int i = 100; i >= 1; --i) hundred.push_back(static_cast<double>(i));
  const sim::LatencySummary s100 = sim::SummarizeLatencies(&hundred);
  EXPECT_DOUBLE_EQ(s100.p50, 50.0);
  EXPECT_DOUBLE_EQ(s100.p95, 95.0);
  EXPECT_DOUBLE_EQ(s100.p99, 99.0);
}

}  // namespace
}  // namespace svc
}  // namespace ltc
