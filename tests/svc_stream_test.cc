// Tests of the streaming service layer: the ltc-events v1 codec, the
// Poisson stream generator, the engine's micro-batch admission, the
// RunOnline-equivalence of deadline-0 admission, the ltc_serve replay
// determinism contract (byte-identical assignment logs for any --threads),
// and worker lifetime (resident state bounded by open work, commit-time
// validation).

#include <algorithm>
#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include "algo/registry.h"
#include "common/string_util.h"
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
  // Commit checks stop at the first move (a batch scheduler may commit a
  // candidate gathered before it), so the run is not reported validated.
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

// ---- Worker lifetime (DESIGN.md §8) ----

/// An upper bound on the workers an MCF pipeline may hold: its Theorem-2
/// batch target |T| * ceil(delta) / K, 1.5x for the first batch, over every
/// task of the stream. The per-worker schedulers hold none.
std::int64_t HoldBound(const io::EventLog& log, const std::string& algorithm) {
  if (algorithm != "MCF") return 0;
  std::int64_t tasks = 0;
  for (const io::Event& e : log.events) {
    tasks += e.kind == io::Event::Kind::kTaskArrival ? 1 : 0;
  }
  const double delta = 2.0 * std::log(1.0 / log.epsilon);
  return static_cast<std::int64_t>(1.5 * static_cast<double>(tasks) *
                                   std::ceil(delta) /
                                   static_cast<double>(log.capacity)) +
         1;
}

/// Workers resident in `engine` beyond its open batches and `hold` held
/// workers per pipeline, plus arrangement entries beyond K per resident
/// worker (0 when bounded).
std::int64_t ResidentExcess(const ShardedStreamEngine& engine,
                            std::int64_t hold) {
  std::int64_t excess = 0;
  for (int k = 0; k < engine.num_shards(); ++k) {
    const StreamPipeline& p = engine.pipeline(k);
    excess += std::max<std::int64_t>(
        0, p.instance().num_workers() -
               static_cast<std::int64_t>(p.batch_size()) - hold);
    excess += std::max<std::int64_t>(
        0, p.arrangement().size() -
               p.instance().num_workers() * p.instance().capacity);
  }
  return excess;
}

struct LifetimeCell {
  const char* algorithm;
  int shards;
  bool routes;
  std::int64_t workers_used;
  double total_acc_star;
  model::WorkerIndex max_assigned_worker;
};

// workers_used, total_acc_star and max_assigned_worker were recorded before
// workers retired, when every pipeline kept every worker it was offered.
// At K = 3, total_acc_star adds each pipeline's commit-order sum in shard
// order.
constexpr LifetimeCell kLifetimeGolden[] = {
    {"LAF", 1, false, 892, 1466.1060077411241, 1097},
    {"LAF", 1, true, 892, 1466.1060077411241, 1097},
    {"LAF", 3, false, 941, 1466.6032124635406, 1334},
    {"LAF", 3, true, 941, 1466.6032124635406, 1334},
    {"AAM", 1, false, 891, 1467.7202340575132, 1097},
    {"AAM", 1, true, 891, 1467.7202340575132, 1097},
    {"AAM", 3, false, 935, 1466.7959022630125, 1332},
    {"AAM", 3, true, 935, 1466.7959022630125, 1332},
    {"Random", 1, false, 892, 1468.226497486218, 1097},
    {"Random", 1, true, 892, 1468.226497486218, 1097},
    {"Random", 3, false, 937, 1466.0065872959981, 1332},
    {"Random", 3, true, 937, 1466.0065872959981, 1332},
    {"MCF", 1, false, 842, 1454.8654821581547, 1124},
    {"MCF", 1, true, 842, 1454.8654821581547, 1124},
    {"MCF", 3, false, 903, 1457.8721992587293, 1332},
    {"MCF", 3, true, 903, 1457.8721992587293, 1332},
};

// After every event, a pipeline holds only its open batch and what its
// scheduler still buffers (route_workers keeps no worker record: a route
// carries its global index). Retirement changes no outcome.
TEST(WorkerLifetimeTest, ResidentWorkersStayWithinOpenWork) {
  gen::StreamConfig cfg = SmallStream(17);
  cfg.num_tasks = 300;
  cfg.task_rate = 100.0;
  cfg.dmax = 150.0;  // more open tasks in reach than K: choices differ
  auto log = gen::GenerateStreamEvents(cfg);
  ASSERT_TRUE(log.ok());
  std::int64_t worker_events = 0;
  for (const io::Event& e : log.value().events) {
    worker_events += e.kind == io::Event::Kind::kWorkerArrival ? 1 : 0;
  }
  std::size_t cells = 0;
  for (const char* algo : {"LAF", "AAM", "Random", "MCF"}) {
    const std::int64_t hold = HoldBound(log.value(), algo);
    for (int shards : {1, 3}) {
      for (bool routes : {false, true}) {
        StreamOptions options;
        options.algorithm = algo;
        options.batch_deadline = 0.4;
        options.shards = shards;
        options.route_workers = routes;
        options.seed = 5;
        const std::string key =
            StrFormat("%s/%d%s", algo, shards, routes ? "/routes" : "");
        auto engine = ShardedStreamEngine::Create(log.value(), options);
        ASSERT_TRUE(engine.ok()) << engine.status().ToString();
        std::int64_t excess = 0;
        for (const io::Event& e : log.value().events) {
          ASSERT_TRUE(engine.value()->OnEvent(e).ok()) << key;
          excess += ResidentExcess(*engine.value(), hold);
        }
        EXPECT_EQ(excess, 0) << key;
        auto metrics = engine.value()->Finish();
        ASSERT_TRUE(metrics.ok()) << key << ": " << metrics.status().ToString();
        EXPECT_TRUE(metrics.value().validated) << key;
        EXPECT_EQ(ResidentExcess(*engine.value(), 0), 0) << key;
        std::int64_t offered = 0;
        for (int k = 0; k < shards; ++k) {
          offered += engine.value()->pipeline(k).workers_offered();
        }
        if (shards == 1) {
          EXPECT_EQ(offered, worker_events) << key;
        } else {
          EXPECT_GE(offered, worker_events) << key;
        }
        const ShardedStreamEngine& done = *engine.value();
        bool pinned = false;
        for (const LifetimeCell& cell : kLifetimeGolden) {
          if (cell.algorithm != std::string(algo) || cell.shards != shards ||
              cell.routes != routes) {
            continue;
          }
          pinned = true;
          ++cells;
          EXPECT_EQ(done.workers_used(), cell.workers_used) << key;
          EXPECT_EQ(done.total_acc_star(), cell.total_acc_star) << key;
          EXPECT_EQ(done.max_assigned_worker(), cell.max_assigned_worker)
              << key;
        }
        EXPECT_TRUE(pinned)
            << key << ": got {\"" << algo << "\", " << shards << ", "
            << (routes ? "true" : "false") << ", " << done.workers_used()
            << ", " << StrFormat("%.17g", done.total_acc_star()) << ", "
            << done.max_assigned_worker() << "},";
      }
    }
  }
  EXPECT_EQ(cells, std::size(kLifetimeGolden));
}

/// The "pworkers <resident> <retired>" and "pbatch <time> <n> ..." counts
/// of every pipeline block in an engine snapshot.
std::vector<std::pair<std::int64_t, std::int64_t>> SnapshotWindows(
    const std::string& snapshot) {
  std::vector<std::pair<std::int64_t, std::int64_t>> windows;
  for (const std::string& line : Split(snapshot, '\n')) {
    const std::vector<std::string> f = Split(line, ' ');
    if (f[0] == "pworkers") windows.emplace_back(std::stoll(f[1]), 0);
    if (f[0] == "pbatch") windows.back().second = std::stoll(f[2]);
  }
  return windows;
}

// A long stream's snapshots stay as small in workers as its open work:
// after 20k and after 80k worker events every pipeline writes only its open
// batch plus what its scheduler holds.
TEST(WorkerLifetimeTest, SnapshotWorkerWindowIsBounded) {
  gen::StreamConfig cfg;
  cfg.num_tasks = 2000;
  cfg.num_workers = 80000;
  cfg.task_rate = 10.0;
  cfg.worker_rate = 400.0;
  cfg.seed = 29;
  auto log = gen::GenerateStreamEvents(cfg);
  ASSERT_TRUE(log.ok());
  for (const char* algo : {"LAF", "MCF"}) {
    const std::int64_t hold = HoldBound(log.value(), algo);
    for (int shards : {1, 3}) {
      StreamOptions options;
      options.algorithm = algo;
      options.batch_deadline = 0.25;
      options.shards = shards;
      options.validate = false;
      auto engine = ShardedStreamEngine::Create(log.value(), options);
      ASSERT_TRUE(engine.ok()) << engine.status().ToString();
      std::int64_t workers = 0;
      int snapshots = 0;
      for (const io::Event& e : log.value().events) {
        ASSERT_TRUE(engine.value()->OnEvent(e).ok());
        if (e.kind != io::Event::Kind::kWorkerArrival) continue;
        if (++workers != 20000 && workers != 80000) continue;
        std::string snapshot;
        ASSERT_TRUE(engine.value()->SerializeTo(&snapshot).ok());
        const auto windows = SnapshotWindows(snapshot);
        ASSERT_EQ(windows.size(), static_cast<std::size_t>(shards));
        for (const auto& [resident, batch] : windows) {
          EXPECT_LE(resident, batch + hold)
              << algo << " shards " << shards << " at " << workers;
        }
        ++snapshots;
      }
      EXPECT_EQ(snapshots, 2) << algo << " shards " << shards;
    }
  }
}

/// Tasks resident in `engine`'s pipelines (their "pt" and "s" records).
std::int64_t ResidentTasks(const ShardedStreamEngine& engine) {
  std::int64_t resident = 0;
  for (int k = 0; k < engine.num_shards(); ++k) {
    const model::ProblemInstance& instance = engine.pipeline(k).instance();
    resident += static_cast<std::int64_t>(instance.tasks.size());
  }
  return resident;
}

/// How many lines of `snapshot` are `key` records.
std::int64_t CountRecords(const std::string& snapshot, const std::string& key) {
  std::int64_t n = 0;
  for (const std::string& line : Split(snapshot, '\n')) {
    n += line.substr(0, line.find(' ')) == key ? 1 : 0;
  }
  return n;
}

// The arrangement keeps only open work: over a stream of N worker arrivals
// and one of 4N, after every event each pipeline lists at most K
// assignments per resident worker, and the end-of-stream snapshot holds no
// listed assignment ("a") at either size (S is one "s" record per task).
TEST(WorkerLifetimeTest, ArrangementListStaysWithinResidentWorkers) {
  for (const char* algo : {"LAF", "AAM", "Random", "MCF"}) {
    for (int shards : {1, 3}) {
      for (int size = 0; size < 2; ++size) {
        gen::StreamConfig cfg = SmallStream(31);
        cfg.num_workers = size == 0 ? 1500 : 6000;
        cfg.num_tasks = cfg.num_workers / 25;
        cfg.dmax = 150.0;
        auto log = gen::GenerateStreamEvents(cfg);
        ASSERT_TRUE(log.ok());
        StreamOptions options;
        options.algorithm = algo;
        options.batch_deadline = 0.4;
        options.shards = shards;
        const std::string key = StrFormat("%s/%d/%lld", algo, shards,
                                          static_cast<long long>(
                                              cfg.num_workers));
        auto engine = ShardedStreamEngine::Create(log.value(), options);
        ASSERT_TRUE(engine.ok()) << engine.status().ToString();
        std::int64_t excess = 0;
        for (const io::Event& e : log.value().events) {
          ASSERT_TRUE(engine.value()->OnEvent(e).ok()) << key;
          excess += ResidentExcess(*engine.value(),
                                   HoldBound(log.value(), algo));
        }
        EXPECT_EQ(excess, 0) << key;
        std::string snapshot;
        ASSERT_TRUE(engine.value()->SerializeTo(&snapshot).ok()) << key;
        EXPECT_EQ(CountRecords(snapshot, "a"), 0) << key;
        EXPECT_EQ(CountRecords(snapshot, "s"), ResidentTasks(*engine.value()))
            << key;
        EXPECT_EQ(CountRecords(snapshot, "arr"), shards) << key;
      }
    }
  }
}

// ---- Task lifetime (DESIGN.md §8) ----

/// Tasks resident in `p` beyond twice its live window — the tasks from the
/// oldest open one or the scheduler's oldest held one, whichever is older,
/// on — plus one if that floor lies below the retired prefix (an open or
/// held task retired); 0 when bounded.
std::int64_t TaskExcess(const StreamPipeline& p) {
  const model::ProblemInstance& instance = p.instance();
  model::TaskId keep = static_cast<model::TaskId>(instance.num_tasks());
  const model::TaskId first = instance.tasks.first_id();
  for (model::TaskId t = first; t < instance.num_tasks(); ++t) {
    if (p.task_open(t)) {
      keep = t;
      break;
    }
  }
  const model::TaskId held = p.scheduler().OldestHeldTask();
  if (held >= 0) keep = std::min(keep, held);
  const auto resident = static_cast<std::int64_t>(instance.tasks.size());
  const std::int64_t live = instance.num_tasks() - keep;
  return std::max<std::int64_t>(0, resident - 2 * live) +
         (keep < first ? 1 : 0);
}

// Closed tasks retire: over a stream of N worker arrivals and one of 4N
// (tasks arriving throughout), after every event each pipeline holds at
// most twice its live task window (from the oldest open or held task on)
// and never retires an open or held task; snapshots every 100 events write
// one "pt" and one "s" per resident task, and their peak grows by less than
// 3x while the stream grows 4x, staying under a quarter of the 4N stream's
// tasks. Retirement changes no outcome (the golden logs and the recovery
// tests pin that).
TEST(TaskLifetimeTest, ResidentTasksStayWithinTheWindow) {
  for (const char* algo : {"LAF", "AAM", "Random", "MCF"}) {
    for (int shards : {1, 3}) {
      std::int64_t peak[2] = {0, 0};
      std::int64_t tasks = 0;
      for (int size = 0; size < 2; ++size) {
        gen::StreamConfig cfg = SmallStream(37);
        cfg.num_workers = size == 0 ? 1500 : 6000;
        cfg.num_tasks = cfg.num_workers / 25;
        tasks = cfg.num_tasks;
        cfg.task_rate = 10.0;
        cfg.worker_rate = 250.0;
        cfg.dmax = 150.0;
        cfg.move_fraction = 0.1;
        auto log = gen::GenerateStreamEvents(cfg);
        ASSERT_TRUE(log.ok());
        StreamOptions options;
        options.algorithm = algo;
        options.batch_deadline = 0.4;
        options.shards = shards;
        const std::string key = StrFormat("%s/%d/%lld", algo, shards,
                                          static_cast<long long>(
                                              cfg.num_workers));
        auto engine = ShardedStreamEngine::Create(log.value(), options);
        ASSERT_TRUE(engine.ok()) << engine.status().ToString();
        std::int64_t excess = 0;
        std::int64_t events = 0;
        for (const io::Event& e : log.value().events) {
          ASSERT_TRUE(engine.value()->OnEvent(e).ok()) << key;
          for (int k = 0; k < shards; ++k) {
            excess += TaskExcess(engine.value()->pipeline(k));
          }
          if (++events % 100 != 0) continue;
          std::string snapshot;
          ASSERT_TRUE(engine.value()->SerializeTo(&snapshot).ok()) << key;
          const std::int64_t resident = ResidentTasks(*engine.value());
          EXPECT_EQ(CountRecords(snapshot, "pt"), resident) << key;
          EXPECT_EQ(CountRecords(snapshot, "s"), resident) << key;
          peak[size] = std::max(peak[size], resident);
        }
        EXPECT_EQ(excess, 0) << key;
        EXPECT_LT(ResidentTasks(*engine.value()), cfg.num_tasks) << key;
        auto metrics = engine.value()->Finish();
        ASSERT_TRUE(metrics.ok()) << key << ": " << metrics.status().ToString();
        EXPECT_EQ(metrics.value().tasks_completed + metrics.value().open_tasks,
                  cfg.num_tasks)
            << key;
      }
      EXPECT_LT(peak[1], 3 * peak[0]) << algo << "/" << shards;
      EXPECT_LT(4 * peak[1], tasks) << algo << "/" << shards;
    }
  }
}

// A move that names a retired task is accepted and changes nothing: the
// task is closed for good. A move naming a task that never arrived is still
// refused.
TEST(TaskLifetimeTest, MovesOfRetiredTasksAreAccepted) {
  gen::StreamConfig cfg = SmallStream(37);
  cfg.task_rate = 10.0;
  cfg.worker_rate = 250.0;
  cfg.dmax = 150.0;
  auto log = gen::GenerateStreamEvents(cfg);
  ASSERT_TRUE(log.ok());
  StreamOptions options;
  options.batch_deadline = 0.4;
  auto engine = ShardedStreamEngine::Create(log.value(), options);
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();
  const StreamPipeline& p = engine.value()->pipeline(0);
  std::size_t next = 0;
  while (p.instance().tasks.first_id() == 0 &&
         next < log.value().events.size()) {
    ASSERT_TRUE(engine.value()->OnEvent(log.value().events[next++]).ok());
  }
  ASSERT_GT(p.instance().tasks.first_id(), 0) << "no task retired";
  std::string before;
  ASSERT_TRUE(engine.value()->SerializeTo(&before).ok());

  io::Event move;
  move.kind = io::Event::Kind::kTaskMove;
  move.time = engine.value()->last_event_time();
  move.task = 0;
  move.location = {1.0, 1.0};
  ASSERT_TRUE(engine.value()->OnEvent(move).ok());
  std::string after;
  ASSERT_TRUE(engine.value()->SerializeTo(&after).ok());
  // Only the event counters moved.
  const auto without_counters = [](const std::string& state) {
    std::string out;
    for (const std::string& line : Split(state, '\n')) {
      if (!StartsWith(line, "counters ")) out += line + "\n";
    }
    return out;
  };
  EXPECT_EQ(without_counters(after), without_counters(before));

  move.task = static_cast<model::TaskId>(p.instance().num_tasks());
  EXPECT_TRUE(engine.value()->OnEvent(move).IsInvalidArgument());
}

/// The local index of the first worker MCF holds ("b" record) in the
/// one-pipeline snapshot `state` with a candidate task `p` still has open,
/// or -1.
std::int64_t HeldWorkerWithOpenCandidate(const std::string& state,
                                         const StreamPipeline& p) {
  for (const std::string& line : Split(state, '\n')) {
    const std::vector<std::string> f = Split(line, ' ');
    if (f[0] != "b") continue;
    for (std::size_t i = 2; i < f.size(); ++i) {
      if (p.task_open(std::stoi(f[i]))) return std::stoll(f[1]);
    }
  }
  return -1;
}

/// The first snapshot of `log` under `options` (one shard) in which MCF
/// holds a worker with an open candidate; *cut receives its event count and
/// *held the worker.
std::string SnapshotHoldingAWorker(const io::EventLog& log,
                                   const StreamOptions& options,
                                   std::int64_t* cut, std::int64_t* held) {
  auto engine = ShardedStreamEngine::Create(log, options);
  engine.status().CheckOK();
  for (std::int64_t i = 0; i < log.num_events(); ++i) {
    engine.value()->OnEvent(log.events[static_cast<std::size_t>(i)]).CheckOK();
    std::string state;
    engine.value()->SerializeTo(&state).CheckOK();
    *held = HeldWorkerWithOpenCandidate(state, engine.value()->pipeline(0));
    if (*held >= 0) {
      *cut = i + 1;
      return state;
    }
  }
  return "";
}

// Commit-time validation sees what the scheduler commits. A snapshot that
// lies about a held worker's accuracy (0: far below acc_min, yet the
// largest Acc*) makes MCF commit an ineligible pair at its next flush; with
// validate on, that flush fails instead of logging the commitment.
TEST(WorkerLifetimeTest, CommitCheckRejectsACorruptedCommit) {
  gen::StreamConfig cfg = SmallStream(23);
  cfg.dmax = 150.0;
  auto log = gen::GenerateStreamEvents(cfg);
  ASSERT_TRUE(log.ok());
  StreamOptions options;
  options.algorithm = "MCF";
  options.batch_deadline = 0.4;
  std::int64_t cut = 0;
  std::int64_t held = 0;
  const std::string state =
      SnapshotHoldingAWorker(log.value(), options, &cut, &held);
  ASSERT_FALSE(state.empty()) << "MCF never held a worker";

  // That held worker's "pw" line.
  std::vector<std::string> lines = Split(state, '\n');
  std::int64_t retired = -1;
  for (const std::string& line : lines) {
    const std::vector<std::string> f = Split(line, ' ');
    if (f[0] == "pworkers") retired = std::stoll(f[2]);
  }
  ASSERT_GE(retired, 0);
  ASSERT_GT(held, retired);
  std::int64_t local = retired;
  for (std::string& line : lines) {
    if (!StartsWith(line, "pw ") || ++local != held) continue;
    std::vector<std::string> f = Split(line, ' ');
    f[4] = "0";
    line = Join(f, " ");
    break;
  }
  ASSERT_EQ(local, held);
  const std::string corrupted = Join(lines, "\n");

  // Runs the stream's tail from the corrupted snapshot; returns the first
  // failure.
  const auto tail = [&](bool validate) {
    StreamOptions o = options;
    o.validate = validate;
    auto engine = ShardedStreamEngine::Restore(log.value(), o, corrupted);
    if (!engine.ok()) return engine.status();
    for (std::int64_t i = cut; i < log.value().num_events(); ++i) {
      LTC_RETURN_IF_ERROR(engine.value()->OnEvent(
          log.value().events[static_cast<std::size_t>(i)]));
    }
    return engine.value()->Finish().status();
  };
  EXPECT_TRUE(tail(/*validate=*/false).ok());
  const Status checked = tail(/*validate=*/true);
  EXPECT_TRUE(checked.IsFailedPrecondition()) << checked.ToString();
  EXPECT_NE(checked.ToString().find("ineligible"), std::string::npos)
      << checked.ToString();
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
