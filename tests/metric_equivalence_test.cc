// The PR-8 compatibility contract: the geo::Metric indirection is free.
// An accuracy model rebound onto an explicit EuclideanMetric must behave
// bit-for-bit like the default (implicit-Euclidean) model everywhere —
// offline eligibility queries, and the full streaming service's rendered
// "ltc-serve v1" assignment logs across every scheduler and shard count.
// Since the default path's bytes are pinned by the PR-6/PR-7 determinism
// tests, equality here extends that pin across the Metric API boundary.
// Road-mode serve logs are pinned to golden digests the same way, so a
// change to how RoadGraph computes distances must keep every one bit-equal.

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/crc32.h"
#include "common/string_util.h"
#include "gen/road.h"
#include "gen/stream.h"
#include "gen/synthetic.h"
#include "geo/metric.h"
#include "geo/road_graph.h"
#include "io/event_log.h"
#include "model/accuracy.h"
#include "model/eligibility.h"
#include "svc/serve_main.h"
#include "svc/sharded_engine.h"
#include "svc/stream_engine.h"

namespace ltc {
namespace svc {
namespace {

/// The instance with its accuracy model rebound onto the explicit
/// Euclidean metric singleton (same parameters, new metric plumbing).
model::ProblemInstance Rebind(const model::ProblemInstance& instance) {
  model::ProblemInstance copy = instance;
  auto rebound = model::RebindMetric(*instance.accuracy,
                                     geo::EuclideanMetricSingleton());
  EXPECT_TRUE(rebound.ok()) << rebound.status().ToString();
  copy.accuracy = std::move(rebound).value();
  return copy;
}

TEST(MetricEquivalenceTest, OfflineEligibilityIsIdentical) {
  gen::SyntheticConfig cfg;
  cfg.num_tasks = 300;
  cfg.num_workers = 2000;
  cfg.grid_side = 300.0;
  auto generated = gen::GenerateSynthetic(cfg);
  ASSERT_TRUE(generated.ok()) << generated.status().ToString();
  const model::ProblemInstance& base = generated.value();
  const model::ProblemInstance rebound = Rebind(base);

  ASSERT_TRUE(base.accuracy->DistanceMetric()->euclidean());
  ASSERT_TRUE(rebound.accuracy->DistanceMetric()->euclidean());

  auto base_index = model::EligibilityIndex::Build(&base);
  auto rebound_index = model::EligibilityIndex::Build(&rebound);
  ASSERT_TRUE(base_index.ok());
  ASSERT_TRUE(rebound_index.ok());

  std::vector<model::TaskId> a;
  std::vector<model::TaskId> b;
  for (const model::Worker& w : base.workers) {
    base_index.value().EligibleTasks(w, &a);
    rebound_index.value().EligibleTasks(w, &b);
    ASSERT_EQ(a, b) << "worker " << w.index;
  }
}

TEST(MetricEquivalenceTest, StreamLogsAreByteIdentical) {
  gen::StreamConfig cfg;
  cfg.num_tasks = 120;
  cfg.num_workers = 4000;
  cfg.seed = 21;
  auto generated = gen::GenerateStreamEvents(cfg);
  ASSERT_TRUE(generated.ok()) << generated.status().ToString();
  const io::EventLog& base_log = generated.value();

  io::EventLog rebound_log = base_log;
  auto rebound = model::RebindMetric(*base_log.accuracy,
                                     geo::EuclideanMetricSingleton());
  ASSERT_TRUE(rebound.ok()) << rebound.status().ToString();
  rebound_log.accuracy = std::move(rebound).value();

  for (const char* algorithm : {"Random", "LAF", "AAM", "MCF"}) {
    for (const int shards : {1, 3}) {
      StreamOptions options;
      options.algorithm = algorithm;
      options.seed = cfg.seed;
      options.shards = shards;

      std::vector<StreamAssignment> base_assignments;
      auto base_replay = ReplayEventLog(base_log, options, &base_assignments);
      ASSERT_TRUE(base_replay.ok()) << base_replay.status().ToString();

      std::vector<StreamAssignment> rebound_assignments;
      auto rebound_replay =
          ReplayEventLog(rebound_log, options, &rebound_assignments);
      ASSERT_TRUE(rebound_replay.ok()) << rebound_replay.status().ToString();

      const std::string base_text = RenderAssignmentLog(
          options, base_assignments, base_replay.value().stream);
      const std::string rebound_text = RenderAssignmentLog(
          options, rebound_assignments, rebound_replay.value().stream);
      ASSERT_FALSE(base_assignments.empty())
          << algorithm << " shards=" << shards;
      EXPECT_EQ(base_text, rebound_text)
          << algorithm << " shards=" << shards;
    }
  }
}

TEST(MetricEquivalenceTest, RouteModeEmitsMoves) {
  gen::StreamConfig cfg;
  cfg.num_tasks = 100;
  cfg.num_workers = 3000;
  cfg.task_rate = 2.0;  // long stream: travel times fit inside it
  cfg.worker_rate = 60.0;
  cfg.seed = 33;
  auto generated = gen::GenerateStreamEvents(cfg);
  ASSERT_TRUE(generated.ok()) << generated.status().ToString();

  StreamOptions options;
  options.algorithm = "LAF";
  options.seed = cfg.seed;
  options.shards = 2;
  options.route_workers = true;
  options.batch_deadline = 1.0;

  std::vector<StreamAssignment> assignments;
  std::vector<WorkerMove> moves;
  auto replay =
      ReplayEventLog(generated.value(), options, &assignments, &moves);
  ASSERT_TRUE(replay.ok()) << replay.status().ToString();
  EXPECT_GT(replay.value().stream.worker_moves, 0);
  EXPECT_EQ(static_cast<std::int64_t>(moves.size()),
            replay.value().stream.worker_moves);
}

// Golden road-mode serve logs: CRC-32 and length of the rendered
// ltc-serve v1 log (moves included) of one ReplayEventLog run under a
// RoadMetric, plus the run's summed Acc* and route travel time at full
// precision. Route legs and multi-shard displaced-task checks interleave
// Distance queries from many sources on one thread's workspace, so these
// digests pin the road distances the engine reads, bit for bit, across
// changes to how RoadGraph answers them.
struct RoadGoldenCell {
  const char* algorithm;
  int shards;
  bool routes;
  std::uint32_t crc;
  std::size_t bytes;
};

constexpr RoadGoldenCell kRoadGolden[] = {
    {"LAF", 1, false, 0xf06c71d7u, 13538},
    {"LAF", 1, true, 0xfe03dcffu, 25044},
    {"LAF", 3, false, 0x42b30308u, 13539},
    {"LAF", 3, true, 0xbde32c1eu, 25045},
    {"AAM", 1, false, 0x1c71c040u, 13538},
    {"AAM", 1, true, 0x50075161u, 25044},
    {"AAM", 3, false, 0x2c34185eu, 13539},
    {"AAM", 3, true, 0xaafa96d0u, 25045},
    {"Random", 1, false, 0x7ac06c34u, 13541},
    {"Random", 1, true, 0x7ed2ae4eu, 25047},
    {"Random", 3, false, 0x7b3a1cd7u, 13542},
    {"Random", 3, true, 0x01057e76u, 25048},
    {"MCF", 1, false, 0xc29c26b9u, 13436},
    {"MCF", 1, true, 0x216cfbd4u, 24616},
    {"MCF", 3, false, 0xc126481eu, 13437},
    {"MCF", 3, true, 0x3eb3f524u, 24617},
};

TEST(MetricEquivalenceTest, RoadStreamLogsMatchGoldenDigests) {
  gen::RoadConfig road;
  road.rows = 24;
  road.cols = 24;
  road.world_side = 300.0;
  auto graph = gen::GenerateGridRoadGraph(road);
  ASSERT_TRUE(graph.ok()) << graph.status().ToString();
  auto metric = std::make_shared<geo::RoadMetric>(
      std::make_shared<geo::RoadGraph>(std::move(graph).value()));

  gen::StreamConfig cfg;
  cfg.num_tasks = 100;
  cfg.num_workers = 3000;
  cfg.task_rate = 2.0;  // long stream: route travel times fit inside it
  cfg.worker_rate = 60.0;
  cfg.move_fraction = 0.1;
  cfg.grid_side = 300.0;
  cfg.seed = 57;
  auto generated = gen::GenerateStreamEvents(cfg);
  ASSERT_TRUE(generated.ok()) << generated.status().ToString();
  io::EventLog log = std::move(generated).value();
  auto rebound = model::RebindMetric(*log.accuracy, metric);
  ASSERT_TRUE(rebound.ok()) << rebound.status().ToString();
  log.accuracy = std::move(rebound).value();

  std::map<std::string, const RoadGoldenCell*> golden;
  for (const RoadGoldenCell& cell : kRoadGolden) {
    golden[StrFormat("%s/%d/%d", cell.algorithm, cell.shards,
                     cell.routes ? 1 : 0)] = &cell;
  }
  for (const char* algo : {"LAF", "AAM", "Random", "MCF"}) {
    for (const int shards : {1, 3}) {
      for (const bool routes : {false, true}) {
        const std::string key =
            StrFormat("%s/%d/%d", algo, shards, routes ? 1 : 0);
        StreamOptions options;
        options.algorithm = algo;
        options.seed = cfg.seed;
        options.shards = shards;
        options.route_workers = routes;
        options.batch_deadline = 0.5;
        std::vector<StreamAssignment> assignments;
        std::vector<WorkerMove> moves;
        auto replay = ReplayEventLog(log, options, &assignments, &moves);
        ASSERT_TRUE(replay.ok()) << replay.status().ToString();
        ASSERT_FALSE(assignments.empty()) << key;
        const ReplayResult& r = replay.value();
        const std::string text =
            RenderAssignmentLog(options, assignments, r.stream, &moves) +
            StrFormat("run %.17g %.17g\n", r.run.stats.total_acc_star,
                      r.stream.route_travel_time);
        const std::uint32_t crc = Crc32(text);
        const auto it = golden.find(key);
        const bool match = it != golden.end() && it->second->crc == crc &&
                           it->second->bytes == text.size();
        EXPECT_TRUE(match)
            << key << ": got {\"" << algo << "\", " << shards << ", "
            << (routes ? "true" : "false") << ", "
            << StrFormat("0x%08x", crc) << "u, " << text.size() << "},";
      }
    }
  }
}

}  // namespace
}  // namespace svc
}  // namespace ltc
