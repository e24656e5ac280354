// Tests of the sharded streaming service (DESIGN.md §9): the geo::ShardMap
// stripe partition, single-shard golden logs of the classic engine, golden
// engine-snapshot digests, the boundary-handoff/claim protocol, the
// shards=K determinism contract (byte-identical serve logs for --threads 1
// vs 4), and the completion-rate property that sharding must not degrade
// the served task set beyond a small boundary epsilon.

#include <cmath>
#include <cstdint>
#include <iterator>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/crc32.h"
#include "common/string_util.h"
#include "gen/stream.h"
#include "geo/shard_map.h"
#include "io/event_log.h"
#include "svc/serve_main.h"
#include "svc/sharded_engine.h"
#include "svc/stream_engine.h"
#include "gtest/gtest.h"

namespace ltc {
namespace svc {
namespace {

gen::StreamConfig SmallStream(std::uint64_t seed) {
  gen::StreamConfig cfg;
  cfg.num_tasks = 80;
  cfg.num_workers = 4000;
  cfg.task_rate = 30.0;
  cfg.worker_rate = 300.0;
  cfg.seed = seed;
  return cfg;
}

TEST(ShardMapTest, StripesPartitionTheWorldAlongCellColumns) {
  auto built = geo::ShardMap::Build(geo::Rect{0.0, 0.0, 100.0, 50.0},
                                    /*cell_size=*/10.0, /*shards=*/4);
  ASSERT_TRUE(built.ok()) << built.status().ToString();
  const geo::ShardMap& map = built.value();
  EXPECT_EQ(map.num_shards(), 4);

  // Stripe edges are multiples of the cell size and tile [0, 110) (11
  // columns, same formula as GridIndex).
  EXPECT_DOUBLE_EQ(map.StripeMinX(0), 0.0);
  for (int s = 0; s < 4; ++s) {
    EXPECT_LE(map.StripeMinX(s), map.StripeMaxX(s));
    const double width = map.StripeMaxX(s) - map.StripeMinX(s);
    EXPECT_DOUBLE_EQ(std::fmod(width, 10.0), 0.0);
    if (s > 0) {
      EXPECT_DOUBLE_EQ(map.StripeMinX(s), map.StripeMaxX(s - 1));
    }
  }
  EXPECT_DOUBLE_EQ(map.StripeMaxX(3), 110.0);

  // Ownership is consistent with the stripe intervals, and out-of-bounds
  // coordinates clamp into the boundary stripes.
  for (double x = -20.0; x <= 130.0; x += 1.0) {
    const int s = map.ShardOf({x, 25.0});
    ASSERT_GE(s, 0);
    ASSERT_LT(s, 4);
    if (x >= 0.0 && x < 110.0) {
      EXPECT_GE(x, map.StripeMinX(s)) << x;
      EXPECT_LT(x, map.StripeMaxX(s)) << x;
    }
  }
  EXPECT_EQ(map.ShardOf({-100.0, 0.0}), 0);
  EXPECT_EQ(map.ShardOf({1e6, 0.0}), 3);

  // The cross-shard radius query covers every stripe the disk touches.
  int lo = 0;
  int hi = 0;
  map.ShardRange({5.0, 25.0}, 2.0, &lo, &hi);
  EXPECT_EQ(lo, 0);
  EXPECT_EQ(hi, 0);
  const double edge = map.StripeMaxX(0);
  map.ShardRange({edge - 1.0, 25.0}, 5.0, &lo, &hi);
  EXPECT_EQ(lo, 0);
  EXPECT_EQ(hi, 1);
  map.ShardRange({55.0, 25.0}, 1000.0, &lo, &hi);
  EXPECT_EQ(lo, 0);
  EXPECT_EQ(hi, 3);
  // Negative radius collapses to the owning stripe.
  map.ShardRange({55.0, 25.0}, -3.0, &lo, &hi);
  EXPECT_EQ(lo, hi);
}

TEST(ShardMapTest, MoreShardsThanColumnsLeavesTrailingShardsEmpty) {
  auto built = geo::ShardMap::Build(geo::Rect{0.0, 0.0, 10.0, 10.0},
                                    /*cell_size=*/10.0, /*shards=*/4);
  ASSERT_TRUE(built.ok());
  const geo::ShardMap& map = built.value();
  // 2 columns for 4 shards: exactly two shards own a column (the rest are
  // empty stripes that never receive work), and every location — in or out
  // of bounds — maps to an owning shard.
  std::set<int> owners;
  for (double x = -5.0; x <= 15.0; x += 0.5) {
    const int s = map.ShardOf({x, 5.0});
    EXPECT_GT(map.StripeMaxX(s), map.StripeMinX(s)) << "shard " << s;
    owners.insert(s);
  }
  EXPECT_EQ(owners.size(), 2u);
}

// Golden single-shard serve logs. Each digest pins the CRC-32 and length of
// the rendered ltc-serve v1 log plus the sim::RunMetrics view of one
// ReplayEventLog run at shards=1. They were captured from the classic
// single-pipeline engine before it was folded into ShardedStreamEngine, so
// the one engine must reproduce the classic assignment sequence exactly —
// for every online scheduler, deadline policy and stream feature, at any
// thread count.
struct GoldenCell {
  const char* algorithm;
  const char* deadline;  // "0", "0.4", or "adaptive" (cap 0.5)
  const char* stream;    // "plain", "moves" (move_fraction 0.1), "routes"
  std::uint32_t crc;
  std::size_t bytes;
};

constexpr GoldenCell kSingleShardGolden[] = {
    {"LAF", "0", "plain", 0x953c9006u, 13232},
    {"LAF", "0.4", "plain", 0xb8711162u, 13325},
    {"LAF", "adaptive", "plain", 0xbfc58b64u, 13260},
    {"AAM", "0", "plain", 0x77315efbu, 13232},
    {"AAM", "0.4", "plain", 0xc38d371du, 13325},
    {"AAM", "adaptive", "plain", 0xe158d693u, 13260},
    {"Random", "0", "plain", 0x1becab1fu, 13235},
    {"Random", "0.4", "plain", 0x21f60f6du, 13328},
    {"Random", "adaptive", "plain", 0x310c24d8u, 13263},
    {"MCF", "0", "plain", 0x34d7488cu, 13230},
    {"MCF", "0.4", "plain", 0xbe416cb9u, 13328},
    {"MCF", "adaptive", "plain", 0xe3e26f8fu, 13258},
    {"LAF", "0", "moves", 0xe8fa2bb7u, 13573},
    {"LAF", "0.4", "moves", 0x32c2ab6du, 13754},
    {"LAF", "adaptive", "moves", 0x957bf71eu, 13601},
    {"AAM", "0", "moves", 0xc37ee561u, 13573},
    {"AAM", "0.4", "moves", 0x831a29b1u, 13754},
    {"AAM", "adaptive", "moves", 0x4eb8090fu, 13601},
    {"Random", "0", "moves", 0xc37d7e20u, 13576},
    {"Random", "0.4", "moves", 0xe3c60a8bu, 13757},
    {"Random", "adaptive", "moves", 0xe6fae75cu, 13604},
    {"MCF", "0", "moves", 0x48e79745u, 13576},
    {"MCF", "0.4", "moves", 0xeac2d10eu, 13754},
    {"MCF", "adaptive", "moves", 0xa6649e8au, 13604},
    {"LAF", "0", "routes", 0xb0fece2au, 14586},
    {"LAF", "0.4", "routes", 0xdf6d5ee9u, 14722},
    {"LAF", "adaptive", "routes", 0x50a27defu, 14614},
    {"AAM", "0", "routes", 0xc5f18ff2u, 14586},
    {"AAM", "0.4", "routes", 0x7abdb9f6u, 14722},
    {"AAM", "adaptive", "routes", 0x5752f081u, 14614},
    {"Random", "0", "routes", 0xa91df856u, 14589},
    {"Random", "0.4", "routes", 0x48e036dfu, 14725},
    {"Random", "adaptive", "routes", 0xbe5d2b6au, 14617},
    {"MCF", "0", "routes", 0x9ca03cb9u, 14585},
    {"MCF", "0.4", "routes", 0xfaeb205au, 14681},
    {"MCF", "adaptive", "routes", 0xba7bc573u, 14613},
};

// The options of one golden cell: `deadline` is "0", "0.4", or "adaptive"
// (cap 0.5).
StreamOptions GoldenOptions(const char* algorithm,
                            const std::string& deadline) {
  StreamOptions options;
  options.algorithm = algorithm;
  options.seed = 123;
  if (deadline == "adaptive") {
    options.deadline_policy = DeadlinePolicy::kAdaptive;
    options.batch_deadline = 0.5;
  } else {
    options.batch_deadline = std::stod(deadline);
  }
  return options;
}

std::string ReplayDigestText(const io::EventLog& log,
                             const StreamOptions& options) {
  std::vector<StreamAssignment> assignments;
  std::vector<WorkerMove> moves;
  auto replay = ReplayEventLog(log, options, &assignments, &moves);
  if (!replay.ok()) {
    ADD_FAILURE() << replay.status().ToString();
    return "";
  }
  const ReplayResult& r = replay.value();
  EXPECT_EQ(r.stream.shards, 1);
  EXPECT_EQ(r.stream.boundary_workers, 0);
  EXPECT_EQ(r.stream.handoff_skips, 0);
  return RenderAssignmentLog(options, assignments, r.stream, &moves) +
         StrFormat("run %lld %d %lld %lld %lld %.17g\n",
                   static_cast<long long>(r.run.latency),
                   r.run.completed ? 1 : 0,
                   static_cast<long long>(r.run.stats.workers_seen),
                   static_cast<long long>(r.run.stats.assignments),
                   static_cast<long long>(r.run.stats.workers_used),
                   r.run.stats.total_acc_star);
}

TEST(ShardedEngineTest, SingleShardMatchesClassicEngine) {
  std::map<std::string, const GoldenCell*> golden;
  for (const GoldenCell& cell : kSingleShardGolden) {
    golden[StrFormat("%s/%s/%s", cell.algorithm, cell.deadline,
                     cell.stream)] = &cell;
  }
  for (const char* stream : {"plain", "moves", "routes"}) {
    gen::StreamConfig cfg = SmallStream(41);
    if (std::string(stream) == "moves") cfg.move_fraction = 0.1;
    auto log = gen::GenerateStreamEvents(cfg);
    ASSERT_TRUE(log.ok());
    for (const char* algo : {"LAF", "AAM", "Random", "MCF"}) {
      for (const char* deadline : {"0", "0.4", "adaptive"}) {
        StreamOptions options = GoldenOptions(algo, deadline);
        options.route_workers = std::string(stream) == "routes";
        const std::string key = StrFormat("%s/%s/%s", algo, deadline, stream);
        for (int threads : {1, 4}) {
          options.threads = threads;
          const std::string text = ReplayDigestText(log.value(), options);
          const std::uint32_t crc = Crc32(text);
          const auto it = golden.find(key);
          const bool match = it != golden.end() && it->second->crc == crc &&
                             it->second->bytes == text.size();
          EXPECT_TRUE(match)
              << key << " threads " << threads << ": got {\"" << algo
              << "\", \"" << deadline << "\", \"" << stream << "\", "
              << StrFormat("0x%08x", crc) << "u, " << text.size() << "},";
        }
      }
    }
  }
}

// Golden engine snapshots. Each digest pins the CRC-32 and length of
// ShardedStreamEngine::SerializeTo after the last event of the golden
// "moves" stream (before Finish), so the snapshot bytes — router tables,
// the merged log, every pipeline block and scheduler blob — are pinned
// like the assignment logs above, at shards 1 and 3 and any thread count.
// Completion-latency ("plat_c") samples are in the order the engine merged
// the closures (the router holds them and the task arrival times, "r"). The
// `routes` cells run with route_workers on,
// which adds the "moves"/"M" log and each pipeline's "proutes"/"pr"/"ps"
// records.
struct SnapshotCell {
  const char* algorithm;
  const char* deadline;  // "0", "0.4", or "adaptive" (cap 0.5)
  int shards;
  std::uint32_t crc;
  std::size_t bytes;
  bool routes = false;
};

constexpr SnapshotCell kSnapshotGolden[] = {
    {"LAF", "0", 1, 0x73b5f07bu, 27042},
    {"LAF", "0.4", 1, 0xddf8bdb4u, 28633},
    {"LAF", "adaptive", 1, 0xd47c597du, 77008},
    {"LAF", "0", 3, 0x6269f858u, 27259},
    {"LAF", "0.4", 3, 0x39ce8f23u, 33268},
    {"LAF", "adaptive", 3, 0xdde65cf4u, 83694},
    {"AAM", "0", 1, 0x9394dde8u, 27077},
    {"AAM", "0.4", 1, 0xeb6d5bceu, 28668},
    {"AAM", "adaptive", 1, 0x8c9da6feu, 77043},
    {"AAM", "0", 3, 0xdf3ff9e1u, 27364},
    {"AAM", "0.4", 3, 0x64137eedu, 33373},
    {"AAM", "adaptive", 3, 0x55f85e42u, 83799},
    {"Random", "0", 1, 0x412b5a87u, 27136},
    {"Random", "0.4", 1, 0x9044bc5au, 28727},
    {"Random", "adaptive", 1, 0xbd537792u, 77102},
    {"Random", "0", 3, 0x6dcb016bu, 27539},
    {"Random", "0.4", 3, 0xf48f908bu, 33548},
    {"Random", "adaptive", 3, 0xa72c1621u, 83974},
    {"MCF", "0", 1, 0x5e837b6fu, 27964},
    {"MCF", "0.4", 1, 0xe2485717u, 31923},
    {"MCF", "adaptive", 1, 0x632d083du, 77930},
    {"MCF", "0", 3, 0x9b314674u, 29906},
    {"MCF", "0.4", 3, 0x71da86e8u, 35801},
    {"MCF", "adaptive", 3, 0xd1258bc5u, 86341},
    {"LAF", "0.4", 1, 0x6c06e149u, 102360, true},
    {"LAF", "0.4", 3, 0x2e47e090u, 106122, true},
    {"MCF", "0.4", 1, 0xb93eb01au, 105194, true},
    {"MCF", "0.4", 3, 0x4c92026bu, 108072, true},
};

std::string SnapshotKey(const char* algorithm, const char* deadline,
                        int shards, bool routes) {
  return StrFormat("%s/%s/%d%s", algorithm, deadline, shards,
                   routes ? "/routes" : "");
}

TEST(ShardedEngineTest, FinalSnapshotBytesArePinned) {
  std::map<std::string, const SnapshotCell*> golden;
  for (const SnapshotCell& cell : kSnapshotGolden) {
    golden[SnapshotKey(cell.algorithm, cell.deadline, cell.shards,
                       cell.routes)] = &cell;
  }
  gen::StreamConfig cfg = SmallStream(41);
  cfg.move_fraction = 0.1;
  auto log = gen::GenerateStreamEvents(cfg);
  ASSERT_TRUE(log.ok());
  // Record keys seen across the pinned snapshots; "pbatch+" stands for a
  // pbatch record that lists buffered workers.
  std::set<std::string> keys_seen;
  for (const SnapshotCell& cell : kSnapshotGolden) {
    StreamOptions options = GoldenOptions(cell.algorithm, cell.deadline);
    options.shards = cell.shards;
    options.route_workers = cell.routes;
    const std::string key = SnapshotKey(cell.algorithm, cell.deadline,
                                        cell.shards, cell.routes);
    for (int threads : {1, 4}) {
      options.threads = threads;
      auto engine = ShardedStreamEngine::Create(log.value(), options);
      ASSERT_TRUE(engine.ok()) << engine.status().ToString();
      for (const io::Event& e : log.value().events) {
        ASSERT_TRUE(engine.value()->OnEvent(e).ok()) << key;
      }
      std::string snapshot;
      ASSERT_TRUE(engine.value()->SerializeTo(&snapshot).ok()) << key;
      const std::uint32_t crc = Crc32(snapshot);
      EXPECT_TRUE(cell.crc == crc && cell.bytes == snapshot.size())
          << key << " threads " << threads << ": got {\"" << cell.algorithm
          << "\", \"" << cell.deadline << "\", " << cell.shards << ", "
          << StrFormat("0x%08x", crc) << "u, " << snapshot.size()
          << (cell.routes ? ", true" : "") << "},";
      for (const std::string& line : Split(snapshot, '\n')) {
        const std::string record = line.substr(0, line.find(' '));
        keys_seen.insert(record);
        if (record == "pbatch" && !EndsWith(line, " 0")) {
          keys_seen.insert("pbatch+");
        }
      }
    }
  }
  EXPECT_EQ(golden.size(), std::size(kSnapshotGolden)) << "duplicate cell";
  // Every record key a writer emits is covered by at least one pin, so the
  // byte pins above guard each record's format.
  for (const char* record : {"pt", "pw", "pbatch+", "l", "arr", "s", "x", "b",
                             "m", "pr", "ps", "d", "c", "A", "M", "fcst",
                             "fc", "pdl"}) {
    EXPECT_TRUE(keys_seen.count(record) > 0)
        << "no pinned snapshot holds a '" << record << "' record";
  }
}

// The tentpole acceptance contract: a K-shard serve log is byte-identical
// across thread counts, for every online algorithm, including streams with
// move events.
TEST(ShardedServeDeterminismTest, LogIdenticalAcrossThreadCounts) {
  for (const char* algo : {"LAF", "AAM", "Random"}) {
    gen::StreamConfig cfg = SmallStream(77);
    cfg.move_fraction = 0.1;
    auto log = gen::GenerateStreamEvents(cfg);
    ASSERT_TRUE(log.ok());

    StreamOptions options;
    options.algorithm = algo;
    options.batch_deadline = 0.4;
    options.seed = 123;
    options.shards = 4;

    options.threads = 1;
    auto one = RunService(log.value(), options);
    ASSERT_TRUE(one.ok()) << one.status().ToString();
    options.threads = 4;
    auto four = RunService(log.value(), options);
    ASSERT_TRUE(four.ok()) << four.status().ToString();

    EXPECT_EQ(one.value().assignment_log, four.value().assignment_log)
        << "algorithm " << algo;
    EXPECT_GT(one.value().metrics.assignments, 0) << "algorithm " << algo;
    EXPECT_EQ(one.value().metrics.shards, 4);
    // The Poisson world at this scale has real stripe-edge traffic.
    EXPECT_GT(one.value().metrics.boundary_workers, 0) << "algorithm " << algo;
  }
}

// Boundary-handoff claim invariant: no worker is ever committed by two
// shards, and every assignment respects per-worker capacity globally.
// Golden snapshots with retired tasks: the same digest pin, taken a third
// into a stream whose tasks arrive throughout and close (reach 150, moves
// on), so every pipeline has retired closed tasks ("ptasks
// <resident> <retired>" with both counts positive) and writes "pt" and "s"
// for its window only.
struct RetiredSnapshotCell {
  const char* algorithm;
  int shards;
  std::uint32_t crc;
  std::size_t bytes;
};

constexpr RetiredSnapshotCell kRetiredSnapshotGolden[] = {
    {"LAF", 1, 0x7d267913u, 22133},
    {"LAF", 3, 0x645195a0u, 24622},
    {"MCF", 1, 0x9dbb7f82u, 24490},
    {"MCF", 3, 0x9f1fcc2eu, 27527},
};

TEST(ShardedEngineTest, RetiredTaskSnapshotBytesArePinned) {
  gen::StreamConfig cfg = SmallStream(43);
  cfg.task_rate = 10.0;
  cfg.worker_rate = 250.0;
  cfg.dmax = 150.0;
  cfg.move_fraction = 0.1;
  auto log = gen::GenerateStreamEvents(cfg);
  ASSERT_TRUE(log.ok());
  const std::size_t cut = log.value().events.size() / 3;
  for (const RetiredSnapshotCell& cell : kRetiredSnapshotGolden) {
    StreamOptions options = GoldenOptions(cell.algorithm, "0.4");
    options.shards = cell.shards;
    const std::string key = StrFormat("%s/%d", cell.algorithm, cell.shards);
    for (int threads : {1, 4}) {
      options.threads = threads;
      auto engine = ShardedStreamEngine::Create(log.value(), options);
      ASSERT_TRUE(engine.ok()) << engine.status().ToString();
      for (std::size_t i = 0; i < cut; ++i) {
        ASSERT_TRUE(engine.value()->OnEvent(log.value().events[i]).ok())
            << key;
      }
      std::string snapshot;
      ASSERT_TRUE(engine.value()->SerializeTo(&snapshot).ok()) << key;
      int windows = 0;
      for (const std::string& line : Split(snapshot, '\n')) {
        const std::vector<std::string> f = Split(line, ' ');
        if (f[0] != "ptasks") continue;
        EXPECT_GT(std::stoll(f[1]), 0) << key << ": " << line;
        EXPECT_GT(std::stoll(f[2]), 0) << key << ": " << line;
        ++windows;
      }
      EXPECT_EQ(windows, cell.shards) << key;
      const std::uint32_t crc = Crc32(snapshot);
      EXPECT_TRUE(cell.crc == crc && cell.bytes == snapshot.size())
          << key << " threads " << threads << ": got {\"" << cell.algorithm
          << "\", " << cell.shards << ", " << StrFormat("0x%08x", crc)
          << "u, " << snapshot.size() << "},";
    }
  }
}

TEST(ShardedEngineTest, ClaimTableKeepsWorkersSingleShard) {
  gen::StreamConfig cfg = SmallStream(9);
  auto log = gen::GenerateStreamEvents(cfg);
  ASSERT_TRUE(log.ok());

  StreamOptions options;
  options.algorithm = "AAM";
  options.batch_deadline = 0.5;
  options.shards = 4;
  std::vector<StreamAssignment> assignments;
  auto replay = ReplayEventLog(log.value(), options, &assignments);
  ASSERT_TRUE(replay.ok()) << replay.status().ToString();
  ASSERT_GT(assignments.size(), 0u);
  EXPECT_TRUE(replay.value().stream.validated);

  std::map<model::WorkerIndex, std::set<model::TaskId>> per_worker;
  for (const StreamAssignment& a : assignments) {
    // No duplicate (worker, task) commitments across shards.
    EXPECT_TRUE(per_worker[a.worker].insert(a.task).second)
        << "worker " << a.worker << " task " << a.task;
  }
  for (const auto& [worker, tasks] : per_worker) {
    EXPECT_LE(static_cast<std::int32_t>(tasks.size()),
              log.value().capacity)
        << "worker " << worker;
  }
}

// The shard-boundary quality property: for random Poisson instances, a
// K-shard run completes (nearly) the same share of the task set as the
// unsharded run. Handoff can only lose a worker to an unlucky claim, so
// a small epsilon bounds the gap.
TEST(ShardedEngineTest, CompletionRateWithinEpsilonOfUnsharded) {
  constexpr double kEpsilon = 0.05;
  for (const std::uint64_t seed : {3u, 11u, 27u, 58u, 101u}) {
    auto log = gen::GenerateStreamEvents(SmallStream(seed));
    ASSERT_TRUE(log.ok());

    StreamOptions options;
    options.algorithm = "LAF";
    options.batch_deadline = 0.5;

    auto unsharded = ReplayEventLog(log.value(), options);
    ASSERT_TRUE(unsharded.ok()) << unsharded.status().ToString();
    options.shards = 4;
    auto sharded = ReplayEventLog(log.value(), options);
    ASSERT_TRUE(sharded.ok()) << sharded.status().ToString();

    const auto rate = [](const ReplayResult& r) {
      return static_cast<double>(r.stream.tasks_completed) /
             static_cast<double>(r.stream.task_events);
    };
    EXPECT_NEAR(rate(sharded.value()), rate(unsharded.value()), kEpsilon)
        << "seed " << seed;
    EXPECT_GT(sharded.value().stream.tasks_completed, 0) << "seed " << seed;
  }
}

// Tasks that relocate across a stripe edge stay reachable: the router
// widens worker route sets to cover displaced tasks, so completion does
// not crater under movement.
TEST(ShardedEngineTest, MoveEventsAcrossStripesStayServed) {
  gen::StreamConfig cfg = SmallStream(33);
  cfg.move_fraction = 0.4;
  auto log = gen::GenerateStreamEvents(cfg);
  ASSERT_TRUE(log.ok());

  StreamOptions options;
  options.algorithm = "LAF";
  options.batch_deadline = 0.25;
  auto unsharded = ReplayEventLog(log.value(), options);
  ASSERT_TRUE(unsharded.ok());
  options.shards = 4;
  auto sharded = ReplayEventLog(log.value(), options);
  ASSERT_TRUE(sharded.ok()) << sharded.status().ToString();

  EXPECT_GT(sharded.value().stream.move_events, 0);
  EXPECT_FALSE(sharded.value().stream.validated);  // moves skip validation
  const double unsharded_rate =
      static_cast<double>(unsharded.value().stream.tasks_completed) /
      static_cast<double>(unsharded.value().stream.task_events);
  const double sharded_rate =
      static_cast<double>(sharded.value().stream.tasks_completed) /
      static_cast<double>(sharded.value().stream.task_events);
  EXPECT_NEAR(sharded_rate, unsharded_rate, 0.05);
}

// A directed stripe-edge scenario: the only worker able to finish a task
// sits in the neighbouring stripe. Without the cross-shard handoff the
// task would starve; with it, the worker is offered to both shards and the
// claim resolves to the one holding the task.
TEST(ShardedEngineTest, HandoffServesTasksAcrossTheStripeEdge) {
  io::EventLog log;
  log.epsilon = 0.4;  // delta ~ 1.83: a couple of good workers complete it
  log.capacity = 6;
  log.acc_min = 0.66;
  log.accuracy = std::make_shared<model::SigmoidDistanceAccuracy>(30.0);

  StreamOptions options;
  options.algorithm = "LAF";
  options.batch_deadline = 0.0;
  options.shards = 2;
  options.world = geo::Rect{0.0, 0.0, 1000.0, 1000.0};

  auto engine = ShardedStreamEngine::Create(log, options);
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();
  const double edge = engine.value()->shard_map().StripeMaxX(0);
  ASSERT_GT(edge, 0.0);
  ASSERT_LT(edge, 1000.0);

  // Task just left of the edge (shard 0); workers just right of it
  // (shard 1's stripe), well within eligible range of the task.
  io::Event task;
  task.kind = io::Event::Kind::kTaskArrival;
  task.time = 0.0;
  task.location = {edge - 1.0, 500.0};
  ASSERT_TRUE(engine.value()->OnEvent(task).ok());
  for (int i = 0; i < 4; ++i) {
    io::Event worker;
    worker.kind = io::Event::Kind::kWorkerArrival;
    worker.time = 1.0 + i;
    worker.location = {edge + 1.0, 500.0};
    worker.accuracy = 0.95;
    ASSERT_TRUE(engine.value()->OnEvent(worker).ok());
  }
  auto metrics = engine.value()->Finish();
  ASSERT_TRUE(metrics.ok()) << metrics.status().ToString();
  EXPECT_EQ(metrics.value().tasks_completed, 1);
  EXPECT_GT(metrics.value().boundary_workers, 0);
  EXPECT_GT(metrics.value().assignments, 0);
}

}  // namespace
}  // namespace svc
}  // namespace ltc
