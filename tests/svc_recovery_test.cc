// Crash-recovery tests for the durable service layer (DESIGN.md §11).
//
// The load-bearing property is determinism under restart: for a fixed
// (header, StreamOptions) configuration, an interrupted-and-recovered
// RecoverableService must emit an assignment log byte-identical to one
// that lived through the whole stream. The suite pins it three ways:
//   * a pure snapshot round-trip property (Serialize → Restore → continue
//     equals never-snapshotting) for every online scheduler × shard count;
//   * randomized crash points (destroying the service without Finish, the
//     crash model of io/wal.h) across schedulers × shards, recovered runs
//     compared byte-for-byte against golden uninterrupted runs;
//   * explicit damage: torn WAL tails, corrupt and truncated snapshots, a
//     snapshot claiming more events than the WAL holds, and injected
//     wal/ingest faults (common/fault_points.h).

#include <gtest/gtest.h>

#include <filesystem>
#include <random>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/crc32.h"
#include "common/fault_points.h"
#include "common/string_util.h"
#include "gen/stream.h"
#include "io/event_log.h"
#include "io/wal.h"
#include "io/workload_io.h"
#include "svc/recoverable.h"
#include "svc/serve_main.h"
#include "svc/sharded_engine.h"
#include "svc/snapshot.h"
#include "mutate.h"

namespace ltc {
namespace svc {
namespace {

io::EventLog MakeLog(std::int64_t tasks, std::int64_t workers,
                     std::uint64_t seed, double move_fraction = 0.0) {
  gen::StreamConfig cfg;
  cfg.num_tasks = tasks;
  cfg.num_workers = workers;
  cfg.move_fraction = move_fraction;
  cfg.seed = seed;
  auto log = gen::GenerateStreamEvents(cfg);
  log.status().CheckOK();
  return std::move(log).value();
}

StreamOptions BaseOptions(const std::string& algorithm, int shards) {
  StreamOptions options;
  options.algorithm = algorithm;
  options.batch_deadline = 0.5;
  options.shards = shards;
  options.threads = 1;
  options.seed = 7;
  // Durable runs fix the world up front (svc/recoverable.h); moves make
  // post-hoc validation inapplicable anyway (svc/stream_engine.h).
  options.world = geo::Rect{0.0, 0.0, 1000.0, 1000.0};
  options.validate = false;
  return options;
}

std::string FreshDir(const std::string& name) {
  const std::string dir = "/tmp/ltc_recovery_test_" + name;
  std::filesystem::remove_all(dir);
  return dir;
}

RecoverableService::Options ServiceOptions(const std::string& state_dir,
                                           const StreamOptions& stream,
                                           std::int64_t snapshot_every,
                                           std::int64_t group_commit) {
  RecoverableService::Options o;
  o.state_dir = state_dir;
  o.stream = stream;
  o.snapshot_every = snapshot_every;
  o.wal.group_commit = group_commit;
  o.wal.fsync = false;  // durability against power loss is not under test
  return o;
}

/// The golden: one uninterrupted durable run over the whole log.
std::string GoldenLog(const io::EventLog& log, const StreamOptions& options,
                      const std::string& dir_name) {
  auto service = RecoverableService::Open(
      log, ServiceOptions(FreshDir(dir_name), options, 0, 64));
  service.status().CheckOK();
  for (const io::Event& e : log.events) {
    service.value()->Ingest(e).CheckOK();
  }
  auto metrics = service.value()->Finish();
  metrics.status().CheckOK();
  return RenderAssignmentLog(options, service.value()->assignments(),
                             metrics.value());
}

struct SchedulerPoint {
  const char* algorithm;
  int shards;
};

const SchedulerPoint kSchedulerMatrix[] = {
    {"LAF", 1}, {"LAF", 4},    {"AAM", 1}, {"AAM", 4},
    {"Random", 1}, {"Random", 4}, {"MCF", 1}, {"MCF", 4},
};

// Satellite 4: Serialize → Restore → continue is assignment-identical to
// never snapshotting, for every online scheduler × shard count, at several
// cut points — the pure-engine core of the recovery contract (no WAL, no
// files, just the snapshot protocol).
TEST(SnapshotRoundTripTest, ContinuationMatchesUninterrupted) {
  const io::EventLog log = MakeLog(50, 1000, 11, /*move_fraction=*/0.15);
  const std::int64_t n = log.num_events();
  for (const SchedulerPoint& point : kSchedulerMatrix) {
    const StreamOptions options = BaseOptions(point.algorithm, point.shards);

    auto golden = ShardedStreamEngine::Create(log, options);
    golden.status().CheckOK();
    for (const io::Event& e : log.events) {
      golden.value()->OnEvent(e).CheckOK();
    }
    auto golden_metrics = golden.value()->Finish();
    golden_metrics.status().CheckOK();
    const std::string golden_log = RenderAssignmentLog(
        options, golden.value()->assignments(), golden_metrics.value());

    for (const std::int64_t cut : {n / 4, n / 2, (3 * n) / 4, n - 1}) {
      auto engine = ShardedStreamEngine::Create(log, options);
      engine.status().CheckOK();
      for (std::int64_t i = 0; i < cut; ++i) {
        engine.value()->OnEvent(log.events[static_cast<std::size_t>(i)])
            .CheckOK();
      }
      std::string state;
      engine.value()->SerializeTo(&state).CheckOK();

      auto restored = ShardedStreamEngine::Restore(log, options, state);
      ASSERT_TRUE(restored.ok())
          << point.algorithm << "@s" << point.shards << " cut " << cut
          << ": " << restored.status().ToString();
      // The snapshot bytes are themselves deterministic: re-serialising the
      // restored engine reproduces them.
      std::string state2;
      restored.value()->SerializeTo(&state2).CheckOK();
      EXPECT_EQ(state, state2)
          << point.algorithm << "@s" << point.shards << " cut " << cut;

      for (std::int64_t i = cut; i < n; ++i) {
        restored.value()->OnEvent(log.events[static_cast<std::size_t>(i)])
            .CheckOK();
      }
      auto metrics = restored.value()->Finish();
      metrics.status().CheckOK();
      const std::string continued = RenderAssignmentLog(
          options, restored.value()->assignments(), metrics.value());
      EXPECT_EQ(continued, golden_log)
          << point.algorithm << "@s" << point.shards << " cut " << cut;
    }
  }
}

// The acceptance sweep: >= 50 randomized crash points across schedulers ×
// shard counts. Each crash destroys the service mid-stream without Finish
// (dropping the WAL's unflushed group-commit window); the reopened service
// recovers, re-ingests the lost suffix from the source log, and must land
// on the golden byte-identical assignment log.
TEST(CrashRecoveryTest, RandomizedCrashPointsRecoverByteIdentical) {
  const io::EventLog log = MakeLog(50, 1000, 23, /*move_fraction=*/0.1);
  const std::int64_t n = log.num_events();
  std::mt19937 rng(1234);
  std::uniform_int_distribution<std::int64_t> pick(1, n - 1);

  int crashes = 0;
  for (const SchedulerPoint& point : kSchedulerMatrix) {
    const StreamOptions options = BaseOptions(point.algorithm, point.shards);
    const std::string tag =
        std::string(point.algorithm) + "_s" + std::to_string(point.shards);
    const std::string golden = GoldenLog(log, options, "golden_" + tag);

    for (int rep = 0; rep < 7; ++rep) {
      const std::int64_t crash_at = pick(rng);
      const std::string dir =
          FreshDir("crash_" + tag + "_" + std::to_string(rep));
      // Snapshot and group-commit cadences deliberately small and co-prime,
      // so crash points land in every phase of both windows.
      const auto sopts = ServiceOptions(dir, options, 97, 16);
      {
        auto service = RecoverableService::Open(log, sopts);
        service.status().CheckOK();
        for (std::int64_t i = 0; i < crash_at; ++i) {
          service.value()->Ingest(log.events[static_cast<std::size_t>(i)])
              .CheckOK();
        }
        // Crash: no Finish, no Close — the destructor drops the unflushed
        // WAL window (io/wal.h).
      }
      auto service = RecoverableService::Open(log, sopts);
      ASSERT_TRUE(service.ok()) << tag << " crash@" << crash_at << ": "
                                << service.status().ToString();
      const RecoverableService::RecoveryInfo& r = service.value()->recovery();
      EXPECT_TRUE(r.recovered);
      EXPECT_LE(r.wal_records, crash_at);
      EXPECT_EQ(service.value()->events_applied(), r.wal_records);
      for (std::int64_t i = service.value()->events_applied(); i < n; ++i) {
        service.value()->Ingest(log.events[static_cast<std::size_t>(i)])
            .CheckOK();
      }
      auto metrics = service.value()->Finish();
      metrics.status().CheckOK();
      const std::string recovered_log = RenderAssignmentLog(
          options, service.value()->assignments(), metrics.value());
      EXPECT_EQ(recovered_log, golden) << tag << " crash@" << crash_at;
      ++crashes;
    }
  }
  EXPECT_GE(crashes, 50);
}

/// The rendered log plus what the log does not show: both latency
/// summaries at full precision and the Acc* sum and worker count.
std::string RenderWithSums(const StreamOptions& options,
                           const RecoverableService& service,
                           const StreamMetrics& metrics) {
  std::string out =
      RenderAssignmentLog(options, service.assignments(), metrics);
  for (const sim::LatencySummary& l :
       {metrics.assignment_latency, metrics.completion_latency}) {
    out += StrFormat("lat %lld %.17g %.17g %.17g %.17g %.17g\n",
                     static_cast<long long>(l.count), l.mean, l.p50, l.p95,
                     l.p99, l.max);
  }
  return out + StrFormat("acc %.17g used %lld\n",
                         service.engine().total_acc_star(),
                         static_cast<long long>(
                             service.engine().workers_used()));
}

/// Crashes a durable service over `log` after `crash_at` events (snapshots
/// every 61), recovers it and runs the rest, for every scheduler at one and
/// three shards and two crash points; the end-of-stream engine state, the
/// log, both latency summaries and the Acc* sum must match an uninterrupted
/// run to the bit. With `expect_retired`, each (scheduler, shards) cell's
/// recoveries must find closed tasks already retired.
void ExpectRecoveryMatchesUninterrupted(const io::EventLog& log,
                                        const std::string& name,
                                        bool expect_retired) {
  const std::int64_t n = log.num_events();
  for (const char* algorithm : {"LAF", "AAM", "Random", "MCF"}) {
    for (const int shards : {1, 3}) {
      const StreamOptions options = BaseOptions(algorithm, shards);
      const std::string tag =
          name + "_" + algorithm + "_k" + std::to_string(shards);
      std::string golden;
      std::string golden_state;
      {
        auto service = RecoverableService::Open(
            log, ServiceOptions(FreshDir(tag + "_golden"), options, 0, 64));
        service.status().CheckOK();
        for (const io::Event& e : log.events) {
          service.value()->Ingest(e).CheckOK();
        }
        service.value()->engine().SerializeTo(&golden_state).CheckOK();
        auto metrics = service.value()->Finish();
        metrics.status().CheckOK();
        golden = RenderWithSums(options, *service.value(), metrics.value());
      }
      std::int64_t retired = 0;
      for (const std::int64_t crash_at : {n / 3, (2 * n) / 3}) {
        const auto sopts = ServiceOptions(FreshDir(tag), options, 61, 16);
        {
          auto service = RecoverableService::Open(log, sopts);
          service.status().CheckOK();
          for (std::int64_t i = 0; i < crash_at; ++i) {
            service.value()->Ingest(log.events[static_cast<std::size_t>(i)])
                .CheckOK();
          }
        }
        auto service = RecoverableService::Open(log, sopts);
        ASSERT_TRUE(service.ok()) << tag << ": " << service.status().ToString();
        EXPECT_GT(service.value()->recovery().snapshot_events, 0) << tag;
        for (int k = 0; k < shards; ++k) {
          retired +=
              service.value()->engine().pipeline(k).instance().tasks.first_id();
        }
        for (std::int64_t i = service.value()->events_applied(); i < n; ++i) {
          service.value()->Ingest(log.events[static_cast<std::size_t>(i)])
              .CheckOK();
        }
        std::string state;
        service.value()->engine().SerializeTo(&state).CheckOK();
        EXPECT_EQ(state, golden_state) << tag << " crash@" << crash_at;
        auto metrics = service.value()->Finish();
        metrics.status().CheckOK();
        EXPECT_EQ(RenderWithSums(options, *service.value(), metrics.value()),
                  golden)
            << tag << " crash@" << crash_at;
      }
      if (expect_retired) {
        EXPECT_GT(retired, 0) << tag;
      }
    }
  }
}

// A crash after several snapshots restores the newest one (S per resident
// task, the arrangement counters, AAM's remaining-demand sum, no assignment
// history) and replays the WAL suffix, with task moves in the stream.
TEST(CrashRecoveryTest, SnapshotRestoreKeepsLogsLatenciesAndSums) {
  ExpectRecoveryMatchesUninterrupted(
      MakeLog(60, 1500, 31, /*move_fraction=*/0.1), "sums",
      /*expect_retired=*/false);
}

// The same over a stream whose tasks arrive throughout and close (a reach
// of 150): each recovery restores a snapshot whose pipelines have retired
// closed tasks, and moves of retired tasks are in the replayed suffix.
TEST(CrashRecoveryTest, RestoreWithRetiredTasksIsByteIdentical) {
  gen::StreamConfig cfg;
  cfg.num_tasks = 60;
  cfg.num_workers = 1500;
  cfg.task_rate = 10.0;
  cfg.worker_rate = 250.0;
  cfg.dmax = 150.0;
  cfg.move_fraction = 0.1;
  cfg.seed = 31;
  auto log = gen::GenerateStreamEvents(cfg);
  log.status().CheckOK();
  ExpectRecoveryMatchesUninterrupted(log.value(), "retired",
                                     /*expect_retired=*/true);
}

// The adaptive deadline's forecast state travels in the snapshot and the
// WAL replay re-derives the rest (DESIGN.md §13), so a crash-recovered
// adaptive service forecasts — and therefore flushes and assigns —
// byte-identically to an uninterrupted one.
TEST(CrashRecoveryTest, AdaptiveDeadlineRecoversByteIdentical) {
  gen::StreamConfig cfg;
  cfg.num_tasks = 50;
  cfg.num_workers = 1000;
  cfg.num_hotspots = 3;  // exercise extensions, not just quiet flushes
  cfg.seed = 29;
  auto generated = gen::GenerateStreamEvents(cfg);
  generated.status().CheckOK();
  const io::EventLog log = std::move(generated).value();
  const std::int64_t n = log.num_events();

  for (int shards : {1, 3}) {
    StreamOptions options = BaseOptions("LAF", shards);
    options.deadline_policy = DeadlinePolicy::kAdaptive;
    const std::string tag = "adaptive_s" + std::to_string(shards);
    const std::string golden = GoldenLog(log, options, "golden_" + tag);
    EXPECT_NE(golden.find("policy adaptive"), std::string::npos);

    for (const std::int64_t crash_at : {n / 3, n / 2, (4 * n) / 5}) {
      const std::string dir =
          FreshDir("crash_" + tag + "_" + std::to_string(crash_at));
      const auto sopts = ServiceOptions(dir, options, 97, 16);
      {
        auto service = RecoverableService::Open(log, sopts);
        service.status().CheckOK();
        for (std::int64_t i = 0; i < crash_at; ++i) {
          service.value()->Ingest(log.events[static_cast<std::size_t>(i)])
              .CheckOK();
        }
        // Crash: destructor drops the unflushed group-commit window.
      }
      auto service = RecoverableService::Open(log, sopts);
      ASSERT_TRUE(service.ok()) << tag << " crash@" << crash_at << ": "
                                << service.status().ToString();
      EXPECT_TRUE(service.value()->recovery().recovered);
      for (std::int64_t i = service.value()->events_applied(); i < n; ++i) {
        service.value()->Ingest(log.events[static_cast<std::size_t>(i)])
            .CheckOK();
      }
      auto metrics = service.value()->Finish();
      metrics.status().CheckOK();
      const std::string recovered_log = RenderAssignmentLog(
          options, service.value()->assignments(), metrics.value());
      EXPECT_EQ(recovered_log, golden) << tag << " crash@" << crash_at;
    }
  }
}

// A torn final WAL record (partial write at crash) is truncated on reopen;
// the stream continues to the golden log.
TEST(CrashRecoveryTest, TornWalTailIsTruncatedAndRecovered) {
  const io::EventLog log = MakeLog(30, 600, 31);
  const StreamOptions options = BaseOptions("LAF", 4);
  const std::string golden = GoldenLog(log, options, "torn_golden");

  const std::string dir = FreshDir("torn");
  const auto sopts = ServiceOptions(dir, options, 0, 8);
  const std::int64_t crash_at = log.num_events() / 2;
  {
    auto service = RecoverableService::Open(log, sopts);
    service.status().CheckOK();
    for (std::int64_t i = 0; i < crash_at; ++i) {
      service.value()->Ingest(log.events[static_cast<std::size_t>(i)])
          .CheckOK();
    }
  }
  // Tear the tail: a record that lost the race with the crash.
  auto wal_text = io::ReadFile(dir + "/wal.events");
  wal_text.status().CheckOK();
  io::WriteFile(dir + "/wal.events", wal_text.value() + "w 3.25 41")
      .CheckOK();

  auto service = RecoverableService::Open(log, sopts);
  ASSERT_TRUE(service.ok()) << service.status().ToString();
  EXPECT_EQ(service.value()->recovery().wal_truncated_bytes, 9);
  for (std::int64_t i = service.value()->events_applied();
       i < log.num_events(); ++i) {
    service.value()->Ingest(log.events[static_cast<std::size_t>(i)])
        .CheckOK();
  }
  auto metrics = service.value()->Finish();
  metrics.status().CheckOK();
  EXPECT_EQ(RenderAssignmentLog(options, service.value()->assignments(),
                                metrics.value()),
            golden);
}

/// Crashes a durable run at `crash_at`, lets `damage` vandalise the state
/// dir, then recovers, finishes the stream, and returns (recovery info,
/// final log).
template <typename DamageFn>
std::string DamagedRecoveryLog(const io::EventLog& log,
                               const StreamOptions& options,
                               const std::string& dir, DamageFn damage,
                               RecoverableService::RecoveryInfo* info) {
  const auto sopts = ServiceOptions(dir, options, 50, 8);
  {
    auto service = RecoverableService::Open(log, sopts);
    service.status().CheckOK();
    for (std::int64_t i = 0; i < (2 * log.num_events()) / 3; ++i) {
      service.value()->Ingest(log.events[static_cast<std::size_t>(i)])
          .CheckOK();
    }
  }
  damage(dir + "/snapshots");
  auto service = RecoverableService::Open(log, sopts);
  service.status().CheckOK();
  *info = service.value()->recovery();
  for (std::int64_t i = service.value()->events_applied();
       i < log.num_events(); ++i) {
    service.value()->Ingest(log.events[static_cast<std::size_t>(i)])
        .CheckOK();
  }
  auto metrics = service.value()->Finish();
  metrics.status().CheckOK();
  return RenderAssignmentLog(options, service.value()->assignments(),
                             metrics.value());
}

std::string NewestSnapshot(const std::string& snap_dir) {
  std::string newest;
  for (const auto& entry : std::filesystem::directory_iterator(snap_dir)) {
    const std::string name = entry.path().filename().string();
    if (name.rfind("snap-", 0) != 0) continue;
    if (newest.empty() || name > newest) newest = name;
  }
  EXPECT_FALSE(newest.empty());
  return snap_dir + "/" + newest;
}

// A corrupt newest snapshot (CRC mismatch) is discarded; recovery falls
// back to an older snapshot or full WAL replay and still reaches golden.
TEST(CrashRecoveryTest, CorruptSnapshotIsDiscarded) {
  const io::EventLog log = MakeLog(30, 600, 37);
  const StreamOptions options = BaseOptions("AAM", 4);
  const std::string golden = GoldenLog(log, options, "corrupt_golden");

  RecoverableService::RecoveryInfo info;
  const std::string recovered = DamagedRecoveryLog(
      log, options, FreshDir("corrupt"),
      [](const std::string& snap_dir) {
        const std::string path = NewestSnapshot(snap_dir);
        auto text = io::ReadFile(path);
        text.status().CheckOK();
        std::string bytes = text.value();
        bytes[bytes.size() / 2] ^= 0x20;  // flip a bit mid-state
        io::WriteFile(path, bytes).CheckOK();
      },
      &info);
  EXPECT_GE(info.snapshots_discarded, 1);
  EXPECT_EQ(recovered, golden);
}

// A truncated snapshot (crash mid-write that somehow survived the atomic
// rename discipline) is likewise discarded.
TEST(CrashRecoveryTest, TruncatedSnapshotIsDiscarded) {
  const io::EventLog log = MakeLog(30, 600, 41);
  const StreamOptions options = BaseOptions("Random", 1);
  const std::string golden = GoldenLog(log, options, "truncsnap_golden");

  RecoverableService::RecoveryInfo info;
  const std::string recovered = DamagedRecoveryLog(
      log, options, FreshDir("truncsnap"),
      [](const std::string& snap_dir) {
        const std::string path = NewestSnapshot(snap_dir);
        auto text = io::ReadFile(path);
        text.status().CheckOK();
        io::WriteFile(path, text.value().substr(0, text.value().size() / 2))
            .CheckOK();
      },
      &info);
  EXPECT_GE(info.snapshots_discarded, 1);
  EXPECT_EQ(recovered, golden);
}

// A state dir written by an older engine holds "ltc-snapshot v1" files
// (every worker in "pworkers", and "a"/"b"/"pr" domains over them), v2
// files (every assignment as an "a" record, assignment latencies as "l")
// or v3 files (every task in "ptasks", arrival times in "pt", completion
// latencies per pipeline).
// The store refuses those headers before it reads any payload, so the dir
// still opens — each old snapshot is discarded and the whole WAL replays to
// the golden log. This run's snapshots, relabelled with a fresh CRC, stand
// in for such files.
TEST(CrashRecoveryTest, OlderSnapshotVersionsAreDiscardedAndTheWalReplayed) {
  const io::EventLog log = MakeLog(30, 600, 47);
  const StreamOptions options = BaseOptions("MCF", 2);
  const std::string golden = GoldenLog(log, options, "old_golden");

  for (const char version : {'1', '2', '3'}) {
    RecoverableService::RecoveryInfo info;
    int relabelled = 0;
    const std::string recovered = DamagedRecoveryLog(
        log, options, FreshDir(std::string("v") + version),
        [&relabelled, version](const std::string& snap_dir) {
          for (const auto& entry :
               std::filesystem::directory_iterator(snap_dir)) {
            const std::string path = entry.path().string();
            if (!EndsWith(path, ".snap")) continue;
            auto text = io::ReadFile(path);
            text.status().CheckOK();
            // The old framing: the same header lines and CRC-32 trailer.
            std::string body = text.value();
            ASSERT_TRUE(StartsWith(body, "# ltc-snapshot v4\n"));
            body[sizeof("# ltc-snapshot v") - 1] = version;
            body.resize(body.rfind("crc32 "));
            body += StrFormat("crc32 %08x\n", Crc32(body));
            io::WriteFile(path, body).CheckOK();
            ++relabelled;
          }
        },
        &info);
    ASSERT_GE(relabelled, 1) << version;
    EXPECT_EQ(info.snapshots_discarded, relabelled) << version;
    EXPECT_EQ(info.snapshot_events, 0) << version;
    EXPECT_EQ(info.replayed, info.wal_records) << version;
    EXPECT_EQ(recovered, golden) << version;
  }
}

// A snapshot that claims more events than the WAL durably holds (here:
// the WAL lost records after the snapshot landed) must not be trusted —
// recovery discards it rather than continuing from a future the WAL
// cannot replay.
TEST(CrashRecoveryTest, SnapshotAheadOfWalIsDiscarded) {
  const io::EventLog log = MakeLog(30, 600, 43);
  const StreamOptions options = BaseOptions("LAF", 1);
  const std::string dir = FreshDir("ahead");
  const auto sopts = ServiceOptions(dir, options, 0, 8);
  const std::int64_t ingested = log.num_events() / 2;
  {
    auto service = RecoverableService::Open(log, sopts);
    service.status().CheckOK();
    for (std::int64_t i = 0; i < ingested; ++i) {
      service.value()->Ingest(log.events[static_cast<std::size_t>(i)])
          .CheckOK();
    }
    // Checkpoint at `ingested`, then chop whole records off the WAL tail.
    service.value()->Checkpoint().CheckOK();
  }
  auto wal_text = io::ReadFile(dir + "/wal.events");
  wal_text.status().CheckOK();
  std::string chopped = wal_text.value();
  chopped.pop_back();  // drop the trailing '\n' so each rfind removes a record
  for (int i = 0; i < 5; ++i) {
    chopped.resize(chopped.rfind('\n'));
  }
  chopped += '\n';
  io::WriteFile(dir + "/wal.events", chopped).CheckOK();

  auto service = RecoverableService::Open(log, sopts);
  ASSERT_TRUE(service.ok()) << service.status().ToString();
  const RecoverableService::RecoveryInfo& r = service.value()->recovery();
  EXPECT_GE(r.snapshots_discarded, 1);
  EXPECT_EQ(service.value()->events_applied(), ingested - 5);
  EXPECT_EQ(r.snapshot_events, 0);  // full WAL replay
}

// Armed fault points turn WAL and ingest sites into surfaced IOErrors
// instead of silent corruption.
TEST(FaultInjectionTest, WalAndIngestFaultsSurface) {
  const io::EventLog log = MakeLog(10, 100, 47);
  const StreamOptions options = BaseOptions("LAF", 1);

  FaultPoints::Instance().Reset();
  FaultPoints::Instance().Arm("wal.append", 3, "fail");
  {
    auto service = RecoverableService::Open(
        log, ServiceOptions(FreshDir("fault_append"), options, 0, 1));
    service.status().CheckOK();
    Status status = Status::OK();
    std::int64_t applied_before_failure = 0;
    for (const io::Event& e : log.events) {
      status = service.value()->Ingest(e);
      if (!status.ok()) break;
      ++applied_before_failure;
    }
    EXPECT_TRUE(status.IsIOError()) << status.ToString();
    EXPECT_NE(status.ToString().find("injected"), std::string::npos);
    EXPECT_EQ(applied_before_failure, 2);
    // WAL-first ordering: the failed event never reached the engine.
    EXPECT_EQ(service.value()->events_applied(), 2);
  }

  FaultPoints::Instance().Reset();
  FaultPoints::Instance().Arm("svc.ingest", 2, "fail");
  {
    auto service = RecoverableService::Open(
        log, ServiceOptions(FreshDir("fault_ingest"), options, 0, 1));
    service.status().CheckOK();
    EXPECT_TRUE(service.value()->Ingest(log.events[0]).ok());
    const Status status = service.value()->Ingest(log.events[1]);
    EXPECT_FALSE(status.ok());
    EXPECT_NE(status.ToString().find("injected"), std::string::npos);
  }
  FaultPoints::Instance().Reset();
}

// The fsync fault point, exercised with fsync actually enabled.
TEST(FaultInjectionTest, FsyncFaultSurfacesWhenFsyncEnabled) {
  const io::EventLog log = MakeLog(10, 100, 53);
  const StreamOptions options = BaseOptions("LAF", 1);
  RecoverableService::Options sopts =
      ServiceOptions(FreshDir("fault_fsync_on"), options, 0, 1);
  sopts.wal.fsync = true;

  FaultPoints::Instance().Reset();
  auto service = RecoverableService::Open(log, sopts);
  service.status().CheckOK();
  // Arm after Open: Create durably fsyncs the WAL header, which would
  // otherwise consume the countdown before the first ingest.
  FaultPoints::Instance().Arm("wal.fsync", 1, "fail");
  const Status status = service.value()->Ingest(log.events[0]);
  EXPECT_TRUE(status.IsIOError()) << status.ToString();
  EXPECT_NE(status.ToString().find("injected"), std::string::npos);
  FaultPoints::Instance().Reset();
}

// RunDurableService end to end: fresh run, then a re-run over the same
// state dir (full recovery, zero re-ingest) must reproduce the log.
TEST(DurableServeTest, RerunOverRecoveredStateIsIdentical) {
  const io::EventLog log = MakeLog(20, 400, 59);
  const StreamOptions options = BaseOptions("MCF", 4);
  DurableConfig dcfg;
  dcfg.state_dir = FreshDir("durable_rerun");
  dcfg.snapshot_every = 100;
  dcfg.wal.fsync = false;

  auto first = RunDurableService(log, options, dcfg);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  EXPECT_FALSE(first.value().recovery.recovered);

  auto second = RunDurableService(log, options, dcfg);
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  EXPECT_TRUE(second.value().recovery.recovered);
  EXPECT_EQ(second.value().recovery.replayed, 0);
  EXPECT_EQ(second.value().assignment_log, first.value().assignment_log);
}

// Restoring into a different topology is refused loudly instead of
// silently rerouting the stream.
TEST(DurableServeTest, TopologyMismatchIsRejected) {
  const io::EventLog log = MakeLog(10, 100, 61);
  const StreamOptions options = BaseOptions("LAF", 2);
  auto engine = ShardedStreamEngine::Create(log, options);
  engine.status().CheckOK();
  for (const io::Event& e : log.events) {
    engine.value()->OnEvent(e).CheckOK();
  }
  std::string state;
  engine.value()->SerializeTo(&state).CheckOK();

  StreamOptions other = options;
  other.shards = 3;
  const auto restored = ShardedStreamEngine::Restore(log, other, state);
  EXPECT_FALSE(restored.ok());
  EXPECT_NE(restored.status().ToString().find("topology"), std::string::npos);
}

// SnapshotStore::Write prunes only for a positive retention, so a count
// below one would keep every snapshot ever written. Open refuses it before
// touching the state dir, as it does a negative snapshot_every.
TEST(DurableServeTest, NonPositiveSnapshotRetainIsRejected) {
  const io::EventLog log = MakeLog(5, 50, 67);
  const std::string dir = FreshDir("retain");
  for (int retain : {0, -1}) {
    RecoverableService::Options o =
        ServiceOptions(dir, BaseOptions("LAF", 1), 10, 8);
    o.snapshot_retain = retain;
    const auto service = RecoverableService::Open(log, o);
    EXPECT_TRUE(service.status().IsInvalidArgument())
        << retain << ": " << service.status().ToString();
  }
  EXPECT_FALSE(std::filesystem::exists(dir));
}

// Runs ServeMain over `mode_flags` plus one flag under test, with a socket
// transport that only records whether it was reached. Flags are
// process-global, so every call restates the mode flags.
int RunServeMain(const std::vector<std::string>& mode_flags,
                 const std::string& flag, bool* served) {
  std::vector<std::string> args = {"ltc_serve"};
  args.insert(args.end(), mode_flags.begin(), mode_flags.end());
  args.push_back(flag);
  std::vector<char*> argv;
  for (std::string& a : args) argv.push_back(a.data());
  *served = false;
  return ServeMain(
      static_cast<int>(argv.size()), argv.data(),
      [served](RecoverableService*,
               const SocketServeRequest&) -> StatusOr<SocketServeResult> {
        *served = true;
        return Status::Unavailable("test transport");
      });
}

// --queue_capacity=0 would reject every frame and -1 would wrap to an
// unbounded queue; both are configuration errors (exit 1) raised before the
// state dir is opened.
TEST(ServeMainTest, NonPositiveQueueCapacityIsAConfigError) {
  const std::string dir = FreshDir("queue_capacity");
  const std::vector<std::string> mode = {
      "--listen=unix:" + dir + ".sock", "--state_dir=" + dir, "--events=",
      "--synthetic=false", "--snapshot_retain=2"};
  bool served = true;
  for (const char* capacity : {"0", "-1"}) {
    EXPECT_EQ(RunServeMain(mode, std::string("--queue_capacity=") + capacity,
                           &served),
              1)
        << capacity;
    EXPECT_FALSE(served) << capacity;
    EXPECT_FALSE(std::filesystem::exists(dir)) << capacity;
  }
  // The smallest valid capacity reaches the transport, whose error is a
  // runtime abort (exit 2).
  EXPECT_EQ(RunServeMain(mode, "--queue_capacity=1", &served), 2);
  EXPECT_TRUE(served);
}

// --snapshot_retain is an int64 flag narrowed to int: values below 1 (keep
// everything) and above INT_MAX (4294967298 would narrow to 2) are
// configuration errors raised before the state dir is opened.
TEST(ServeMainTest, OutOfRangeSnapshotRetainIsAConfigError) {
  const std::string dir = FreshDir("retain_flag");
  const std::vector<std::string> mode = {
      "--listen=", "--events=", "--synthetic", "--tasks=5", "--workers=50",
      "--state_dir=" + dir, "--wal_fsync=false"};
  bool served = false;
  for (const char* retain : {"0", "-3", "4294967298"}) {
    EXPECT_EQ(
        RunServeMain(mode, std::string("--snapshot_retain=") + retain, &served),
        1)
        << retain;
    EXPECT_FALSE(std::filesystem::exists(dir)) << retain;
  }
  EXPECT_EQ(RunServeMain(mode, "--snapshot_retain=1", &served), 0);
  EXPECT_TRUE(std::filesystem::exists(dir));
}

// Out-of-range stream options (ValidateStreamOptions, or an int64 flag
// that would wrap when narrowed to int) are configuration errors (exit 1)
// raised before the state dir is opened, in the replay and the socket mode
// alike. Every call restates each option under test at its default before
// the flag under test, so each call varies exactly one.
TEST(ServeMainTest, OutOfRangeStreamOptionsAreConfigErrors) {
  const std::string dir = FreshDir("stream_options");
  std::vector<std::string> defaults = Split(
      "--algo=LAF --deadline=0 --shards=1 --threads=1 --max_batch=0 "
      "--mcf_drift_check_every=0 --snapshot_retain=2",
      ' ');
  defaults.push_back("--state_dir=" + dir);
  std::vector<std::string> replay = Split(
      "--listen= --events= --synthetic --tasks=5 --workers=50 "
      "--wal_fsync=false",
      ' ');
  replay.insert(replay.end(), defaults.begin(), defaults.end());
  std::vector<std::string> socket = {"--events=", "--synthetic=false"};
  socket.push_back("--listen=unix:" + dir + ".sock");
  socket.insert(socket.end(), defaults.begin(), defaults.end());
  const std::vector<std::string> bad_flags = Split(
      "--shards=0 --shards=4294967299 --deadline=-1 --deadline=nan "
      "--threads=-2 --max_batch=-1 --mcf_drift_check_every=-1 "
      "--algo=MCF-LTC --algo=Nope",
      ' ');
  bool served = false;
  for (const std::string& flag : bad_flags) {
    EXPECT_EQ(RunServeMain(replay, flag, &served), 1) << flag;
    EXPECT_FALSE(std::filesystem::exists(dir)) << flag;
    EXPECT_EQ(RunServeMain(socket, flag, &served), 1) << "--listen " << flag;
    EXPECT_FALSE(served) << flag;
    EXPECT_FALSE(std::filesystem::exists(dir)) << "--listen " << flag;
  }
  EXPECT_EQ(RunServeMain(replay, "--shards=1", &served), 0);
  EXPECT_TRUE(std::filesystem::exists(dir));
}

// RecoverableService::Open validates the stream options before it creates
// the state dir, like its own durability knobs.
TEST(DurableServeTest, OutOfRangeStreamOptionsAreRejectedBeforeTheStateDir) {
  const io::EventLog log = MakeLog(5, 50, 67);
  const std::string dir = FreshDir("open_stream_options");
  StreamOptions shards = BaseOptions("LAF", 0);
  StreamOptions deadline = BaseOptions("LAF", 1);
  deadline.batch_deadline = -1.0;
  StreamOptions offline = BaseOptions("MCF-LTC", 1);
  for (const StreamOptions& stream : {shards, deadline, offline}) {
    const RecoverableService::Options o = ServiceOptions(dir, stream, 10, 8);
    EXPECT_FALSE(RecoverableService::Open(log, o).ok()) << stream.algorithm;
  }
  EXPECT_FALSE(std::filesystem::exists(dir));
}

// A claim entry lives while 1..K offers of its boundary worker are still
// outstanding; it retires at 0, so SerializeTo never writes a 0. Restore
// must refuse a record outside that range — a restored 0 would decrement
// past zero and never retire.
TEST(SnapshotRoundTripTest, ClaimRecordsOutOfRangeAreRejected) {
  const io::EventLog log = MakeLog(50, 1000, 11);
  const StreamOptions options = BaseOptions("LAF", 4);
  auto engine = ShardedStreamEngine::Create(log, options);
  engine.status().CheckOK();
  // Stop at the first event that leaves a boundary worker in flight.
  std::string state;
  std::size_t claim = std::string::npos;
  for (const io::Event& e : log.events) {
    engine.value()->OnEvent(e).CheckOK();
    state.clear();
    engine.value()->SerializeTo(&state).CheckOK();
    claim = state.find("\nc ");
    if (claim != std::string::npos) break;
  }
  ASSERT_NE(claim, std::string::npos) << "no boundary worker in flight";
  ASSERT_TRUE(ShardedStreamEngine::Restore(log, options, state).ok());

  // Rewrite the record's last field, `remaining`.
  const std::size_t line_end = state.find('\n', claim + 1);
  const std::size_t field = state.rfind(' ', line_end) + 1;
  for (const char* remaining : {"0", "5", "-1"}) {
    std::string edited = state;
    edited.replace(field, line_end - field, remaining);
    const auto restored = ShardedStreamEngine::Restore(log, options, edited);
    EXPECT_TRUE(restored.status().IsOutOfRange())
        << "remaining " << remaining << ": " << restored.status().ToString();
  }
}

// Every record count in an engine snapshot is untrusted: a negative count
// is a parse error, and a huge one reserves no more than the snapshot's
// remaining lines (both used to abort in std::vector::reserve).
TEST(SnapshotRoundTripTest, BadRecordCountsAreRejected) {
  const io::EventLog log = MakeLog(50, 1000, 71);
  StreamOptions options = BaseOptions("LAF", 2);
  options.route_workers = true;
  auto engine = ShardedStreamEngine::Create(log, options);
  engine.status().CheckOK();
  // Stop at the first event that leaves a worker route open, so the
  // snapshot also carries "ps" stop records.
  std::string state;
  std::size_t route = std::string::npos;
  for (const io::Event& e : log.events) {
    engine.value()->OnEvent(e).CheckOK();
    state.clear();
    engine.value()->SerializeTo(&state).CheckOK();
    route = state.find("\npr ");
    if (route != std::string::npos) break;
  }
  ASSERT_NE(route, std::string::npos) << "no open route in any snapshot";
  ASSERT_TRUE(ShardedStreamEngine::Restore(log, options, state).ok());

  for (const char* key : {"tasks", "log", "moves", "ptasks", "pworkers"}) {
    const std::string record = std::string("\n") + key + " ";
    const std::size_t at = state.find(record);
    ASSERT_NE(at, std::string::npos) << key;
    const std::size_t field = at + record.size();
    const std::size_t line_end = state.find('\n', field);
    for (const char* count : {"-1", "4611686018427387904"}) {
      std::string edited = state;
      edited.replace(field, line_end - field, count);
      const auto restored = ShardedStreamEngine::Restore(log, options, edited);
      EXPECT_TRUE(restored.status().IsInvalidArgument())
          << key << " " << count << ": " << restored.status().ToString();
    }
  }
  // A route record's last field counts the "ps" stop lines that follow.
  const std::size_t line_end = state.find('\n', route + 1);
  const std::size_t field = state.rfind(' ', line_end) + 1;
  std::string edited = state;
  edited.replace(field, line_end - field, "4611686018427387904");
  const auto restored = ShardedStreamEngine::Restore(log, options, edited);
  EXPECT_TRUE(restored.status().IsInvalidArgument())
      << restored.status().ToString();
}


/// The engine snapshot after the first `cut` events of `log`.
std::string SnapshotAt(const io::EventLog& log, const StreamOptions& options,
                       std::int64_t cut) {
  auto engine = ShardedStreamEngine::Create(log, options);
  engine.status().CheckOK();
  for (std::int64_t i = 0; i < cut; ++i) {
    engine.value()->OnEvent(log.events[static_cast<std::size_t>(i)])
        .CheckOK();
  }
  std::string state;
  engine.value()->SerializeTo(&state).CheckOK();
  return state;
}

/// `state` with field `field` (0 = the key) of the first `key` record
/// replaced by `value`; empty when no such record exists.
std::string EditField(const std::string& state, const std::string& key,
                      std::size_t field, const std::string& value) {
  std::vector<std::string> lines = Split(state, '\n');
  for (std::string& line : lines) {
    std::vector<std::string> f = Split(line, ' ');
    if (f[0] != key || field >= f.size()) continue;
    f[field] = value;
    line = Join(f, " ");
    return Join(lines, "\n");
  }
  return "";
}

// A CRC-valid snapshot whose clock disagrees with the WAL event it claims
// to end at (rewritten, CRC recomputed) is discarded like one ahead of the
// WAL: recovery replays the whole WAL and finishes with the golden log.
// Restored, a future clock would fail the next event with "precedes the
// stream clock", on every restart.
TEST(CrashRecoveryTest, SnapshotClockOffTheWalIsDiscarded) {
  const io::EventLog log = MakeLog(30, 600, 43);
  const StreamOptions options = BaseOptions("LAF", 1);
  const std::string golden = GoldenLog(log, options, "clock_golden");
  const std::int64_t ingested = log.num_events() / 2;
  for (const char* clock : {"1000000", "0"}) {
    const std::string dir = FreshDir("clock");
    const auto sopts = ServiceOptions(dir, options, 0, 8);
    {
      auto service = RecoverableService::Open(log, sopts);
      service.status().CheckOK();
      for (std::int64_t i = 0; i < ingested; ++i) {
        service.value()->Ingest(log.events[static_cast<std::size_t>(i)])
            .CheckOK();
      }
      service.value()->Checkpoint().CheckOK();
    }
    auto store = SnapshotStore::Open(dir + "/snapshots");
    store.status().CheckOK();
    auto loaded = store.value().LoadLatest();
    loaded.status().CheckOK();
    ASSERT_TRUE(loaded.value().found);
    ASSERT_EQ(loaded.value().events_applied, ingested);
    const std::string edited =
        EditField(loaded.value().engine_state, "clock", 1, clock);
    ASSERT_FALSE(edited.empty());
    ASSERT_NE(edited, loaded.value().engine_state);
    // Write frames the edited state with a fresh CRC, over the same file.
    store.value().Write(ingested, edited).CheckOK();

    auto service = RecoverableService::Open(log, sopts);
    ASSERT_TRUE(service.ok()) << clock << ": " << service.status().ToString();
    const RecoverableService::RecoveryInfo& r = service.value()->recovery();
    EXPECT_GE(r.snapshots_discarded, 1) << clock;
    EXPECT_EQ(r.snapshot_events, 0) << clock;  // full WAL replay
    EXPECT_EQ(r.replayed, ingested) << clock;
    for (std::int64_t i = ingested; i < log.num_events(); ++i) {
      ASSERT_TRUE(
          service.value()->Ingest(log.events[static_cast<std::size_t>(i)])
              .ok());
    }
    auto metrics = service.value()->Finish();
    ASSERT_TRUE(metrics.ok()) << metrics.status().ToString();
    EXPECT_EQ(RenderAssignmentLog(options, service.value()->assignments(),
                                  metrics.value()),
              golden)
        << clock;
  }
}

// Every field the writer emits has a declared domain, and Restore rejects
// a value outside it: one edit per case to a valid mid-stream snapshot of a
// two-shard LAF engine, with fixed and with adaptive deadlines.
TEST(SnapshotRoundTripTest, FieldOutsideItsDomainIsRejected) {
  struct Edit {
    const char* key;
    std::size_t field;
    const char* value;
    bool adaptive_only;
    // Snapshots hold resident workers only, and under the adaptive policy
    // every arrival of this stream flushes at once (a quiet cell), so only
    // the fixed-deadline snapshot still buffers a worker ("pw").
    bool fixed_only = false;
  };
  const Edit kEdits[] = {
      {"clock", 1, "nan", false},      {"clock", 1, "inf", false},
      {"counters", 1, "-5", false},    {"r", 3, "7", false},
      {"r", 4, "nan", false},          {"ptasks", 2, "-1", false},
      {"A", 3, "999999", false},       {"A", 2, "-3", false},
      {"A", 1, "nan", false},          {"pt", 1, "999999", false},
      {"pt", 1, "-4", false},          {"pt", 3, "nan", false},
      {"pt", 2, "inf", false},         {"pw", 1, "-4", false, true},
      {"pw", 4, "nan", false, true},   {"pw", 4, "7", false, true},
      {"pworkers", 2, "-1", false},
      {"pbatch", 1, "nan", false},     {"pcounters", 1, "-9", false},
      {"l", 1, "nan", false},          {"l", 1, "inf", false},
      {"s", 1, "nan", false},          {"s", 1, "-1", false},
      {"arr", 1, "-1", false},         {"arr", 3, "inf", false},
      {"sched", 1, "-3", false},
      {"fc", 2, "nan", true},          {"fc", 2, "-1", true},
      {"fc", 3, "inf", true},          {"fcst", 3, "-2", true},
      {"pdl", 1, "nan", true},         {"pdl", 2, "-1", true},
  };
  // A reach of 100 closes tasks before the cut, so completion-latency
  // samples ("l") are in the snapshot too.
  gen::StreamConfig cfg;
  cfg.num_tasks = 50;
  cfg.num_workers = 1000;
  cfg.move_fraction = 0.1;
  cfg.dmax = 100.0;
  cfg.seed = 11;
  auto generated = gen::GenerateStreamEvents(cfg);
  generated.status().CheckOK();
  const io::EventLog log = std::move(generated).value();
  for (const bool adaptive : {false, true}) {
    StreamOptions options = BaseOptions("LAF", 2);
    if (adaptive) options.deadline_policy = DeadlinePolicy::kAdaptive;
    const std::string state = SnapshotAt(log, options, log.num_events() / 2);
    ASSERT_TRUE(ShardedStreamEngine::Restore(log, options, state).ok());
    int cases = 0;
    for (const Edit& edit : kEdits) {
      if ((edit.adaptive_only && !adaptive) || (edit.fixed_only && adaptive)) {
        continue;
      }
      const std::string edited =
          EditField(state, edit.key, edit.field, edit.value);
      ASSERT_FALSE(edited.empty()) << "no '" << edit.key << "' record";
      const Status status =
          ShardedStreamEngine::Restore(log, options, edited).status();
      EXPECT_TRUE(status.IsInvalidArgument() || status.IsOutOfRange())
          << (adaptive ? "adaptive " : "fixed ") << edit.key << " field "
          << edit.field << " = " << edit.value << ": " << status.ToString();
      ++cases;
    }
    EXPECT_EQ(cases, adaptive ? 29 : 26);
  }
}

// The router and the pipelines describe the same tasks. Shifting every
// pipeline task's global id past the router's task table used to restore
// fine and then index past that table the first time one of the tasks
// closed; Restore now refuses it.
TEST(SnapshotRoundTripTest, PipelineTaskIdsMustMatchTheRouter) {
  gen::StreamConfig cfg;
  cfg.num_tasks = 60;
  cfg.num_workers = 6000;
  cfg.dmax = 80.0;
  cfg.seed = 5;
  auto generated = gen::GenerateStreamEvents(cfg);
  generated.status().CheckOK();
  const io::EventLog log = std::move(generated).value();
  const StreamOptions options = BaseOptions("LAF", 2);
  // Cut while tasks still arrive, so the pipelines hold open ("pt") tasks:
  // by half the stream every task has closed and retired.
  std::int64_t cut = 0;
  for (std::int64_t arrived = 0; arrived < cfg.num_tasks / 2; ++cut) {
    arrived += log.events[static_cast<std::size_t>(cut)].kind ==
               io::Event::Kind::kTaskArrival;
  }
  const std::string state = SnapshotAt(log, options, cut);

  std::vector<std::string> lines = Split(state, '\n');
  int shifted = 0;
  for (std::string& line : lines) {
    std::vector<std::string> f = Split(line, ' ');
    if (f[0] != "pt") continue;
    f[1] = std::to_string(std::stoll(f[1]) + 100000);
    line = Join(f, " ");
    ++shifted;
  }
  ASSERT_GT(shifted, 0);
  const auto restored =
      ShardedStreamEngine::Restore(log, options, Join(lines, "\n"));
  ASSERT_TRUE(restored.status().IsOutOfRange())
      << restored.status().ToString();

  // Swapping two pipeline tasks' ids keeps them in range but breaks the
  // router's routes; that is refused too.
  lines = Split(state, '\n');
  std::vector<std::size_t> pt;
  for (std::size_t i = 0; i < lines.size(); ++i) {
    if (StartsWith(lines[i], "pt ")) pt.push_back(i);
  }
  ASSERT_GE(pt.size(), 2u);
  std::vector<std::string> a = Split(lines[pt[0]], ' ');
  std::vector<std::string> b = Split(lines[pt[1]], ' ');
  std::swap(a[1], b[1]);
  lines[pt[0]] = Join(a, " ");
  lines[pt[1]] = Join(b, " ");
  EXPECT_TRUE(ShardedStreamEngine::Restore(log, options, Join(lines, "\n"))
                  .status()
                  .IsOutOfRange());

  // The router's task table and the task-arrival counter agree too; a
  // recovered service that counted one task more reported a wrong
  // completion footer.
  const std::string counters = state.substr(state.find("\ncounters ") + 1);
  const std::int64_t task_events = std::stoll(Split(counters, ' ')[2]);
  EXPECT_TRUE(
      ShardedStreamEngine::Restore(
          log, options,
          EditField(state, "counters", 2, std::to_string(task_events + 1)))
          .status()
          .IsInvalidArgument());
}

// Seeded snapshot mutations (tests/mutate.h): each mutant of a valid
// snapshot is either refused with a Status, or restores into an engine
// whose snapshot is the mutant byte for byte and which runs the stream's
// tail to Finish. A tail event may be refused only because the mutant moved
// the stream clock past it; nothing may abort (the sanitizer CI rows run
// this with _GLIBCXX_ASSERTIONS).
TEST(SnapshotMutationTest, SeededMutationsAreRefusedOrRoundTrip) {
  struct Base {
    const char* algorithm;
    bool adaptive;
    bool routes;
  };
  const Base kBases[] = {
      {"LAF", true, true}, {"Random", false, true}, {"MCF", false, true},
      {"MCF", true, false}, {"AAM", false, false},
  };
  // A slow stream (~40 time units), so routed workers reach stops ("M"),
  // with a reach of 150 so every base has closed tasks ("l").
  gen::StreamConfig cfg;
  cfg.num_tasks = 20;
  cfg.num_workers = 400;
  cfg.task_rate = 0.5;
  cfg.worker_rate = 10.0;
  cfg.move_fraction = 0.1;
  cfg.dmax = 150.0;
  cfg.seed = 13;
  auto generated = gen::GenerateStreamEvents(cfg);
  generated.status().CheckOK();
  const io::EventLog log = std::move(generated).value();
  const std::int64_t n = log.num_events();
  std::mt19937_64 rng(20261019);
  std::set<std::string> keys;
  int refused = 0;
  int accepted = 0;
  for (const Base& base : kBases) {
    StreamOptions options = BaseOptions(base.algorithm, 3);
    options.batch_deadline = 0.4;
    if (base.adaptive) options.deadline_policy = DeadlinePolicy::kAdaptive;
    options.route_workers = base.routes;
    const std::int64_t cut = n - 40;
    const std::string state = SnapshotAt(log, options, cut);
    for (const std::string& line : Split(state, '\n')) {
      keys.insert(line.substr(0, line.find(' ')));
    }
    for (int m = 0; m < 600; ++m) {
      const std::string text = Mutate(state, m, rng);
      auto restored = ShardedStreamEngine::Restore(log, options, text);
      if (!restored.ok()) {
        ++refused;
        continue;
      }
      ++accepted;
      std::string again;
      ASSERT_TRUE(restored.value()->SerializeTo(&again).ok());
      ASSERT_EQ(again, text) << base.algorithm << " mutant " << m;
      for (std::int64_t i = cut; i < n; ++i) {
        const Status status = restored.value()->OnEvent(
            log.events[static_cast<std::size_t>(i)]);
        if (!status.ok()) {
          EXPECT_NE(status.ToString().find("precedes the stream clock"),
                    std::string::npos)
              << base.algorithm << " mutant " << m << ": "
              << status.ToString();
          break;
        }
      }
      (void)restored.value()->Finish();
    }
  }
  EXPECT_EQ(refused + accepted, 3000);
  EXPECT_GT(refused, 0);
  for (const char* key : {"r", "ptasks", "pt", "pw", "l", "arr", "s", "x",
                          "b", "m", "pr", "ps", "d", "c", "A", "M", "fcst",
                          "fc", "pdl"}) {
    EXPECT_TRUE(keys.count(key) > 0) << "no base snapshot holds '" << key
                                     << "'";
  }
}

}  // namespace
}  // namespace svc
}  // namespace ltc
