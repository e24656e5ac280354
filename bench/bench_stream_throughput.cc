// Streaming-service benchmark: sustained events/sec and assignment-latency
// percentiles of svc::ShardedStreamEngine (through svc::ReplayEventLog)
// over synthetic Poisson arrival streams, per scale point, shard count and
// online algorithm.
//
//   ./build/bench/bench_stream_throughput --reps=3
//       --shards=1,4 --json=stream.json
//
// The JSON summary uses the bench_compare-compatible shape (figure /
// cases / algorithms), with the stream-specific metrics alongside the
// standard ones:
//   events_per_sec            — wall-clock throughput (machine-dependent;
//                               CI gates it with a wide tolerance)
//   mean_assignment_latency,
//   p95_/p99_assignment_latency — stream-time latency distribution
//                               (schedule-deterministic, tightly gated)
// --shards runs every requested spatial shard count as its own case
// ("10k@s1", "10k@s4", ...), which is how CI tracks the shard-scaling axis.
// The checked-in baseline is BENCH_PR5.json; tools/bench_compare.py gates
// CI's bench-smoke job against it.

#include <cstdio>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/flags.h"
#include "common/string_util.h"
#include "common/timer.h"
#include "exp/sweep.h"
#include "gen/road.h"
#include "gen/stream.h"
#include "geo/road_graph.h"
#include "io/workload_io.h"
#include "model/accuracy.h"
#include "svc/serve_main.h"
#include "svc/sharded_engine.h"
#include "svc/stream_engine.h"

namespace ltc {
namespace {

Flag<std::int64_t> FLAG_reps("reps", 3, "repetitions per point");
Flag<std::int64_t> FLAG_seed("seed", 1, "base RNG seed");
Flag<std::string> FLAG_deadline(
    "deadline", "0.5",
    "batching deadline, or 'adaptive' for the forecast-driven policy "
    "(capped at --deadline_cap; the JSON figure becomes "
    "stream_throughput_adaptive so adaptive baselines gate separately)");
Flag<double> FLAG_deadline_cap(
    "deadline_cap", 0.5,
    "--deadline=adaptive: hard cap on how long a batch may stay open");
Flag<std::string> FLAG_shards("shards", "1",
                              "comma-separated spatial shard counts to run "
                              "(e.g. 1,4); every count becomes its own "
                              "'<scale>@sK' case");
Flag<std::string> FLAG_json("json", "",
                            "write the machine-readable JSON summary here");
Flag<std::string> FLAG_cases("cases", "",
                             "comma-separated scale labels to run (all when "
                             "empty)");
Flag<std::string> FLAG_metric(
    "metric", "euclid",
    "distance backend: 'euclid' (classic) or 'road' (rebinds the accuracy "
    "model onto a RoadMetric over a synthesized street grid; the JSON "
    "figure becomes stream_throughput_road so road baselines gate "
    "separately)");

struct StreamCase {
  std::string label;
  std::int64_t num_tasks;
  std::int64_t num_workers;
};

/// Aggregates one (case, algorithm) cell over its repetitions.
struct CellResult {
  std::string name;
  double events_per_sec = 0.0;
  double mean_latency = 0.0;  // mean max worker index, as in every suite
  double mean_assignment_latency = 0.0;
  double p95_assignment_latency = 0.0;
  double p99_assignment_latency = 0.0;
  double mean_runtime_seconds = 0.0;
  std::int64_t completed_runs = 0;
  std::int64_t runs = 0;
};

StatusOr<CellResult> RunCell(const StreamCase& scale, std::int64_t shards,
                             const std::string& algorithm,
                             const std::shared_ptr<const geo::Metric>& metric,
                             const svc::StreamOptions& batching) {
  CellResult cell;
  cell.name = algorithm;
  const std::int64_t reps = FLAG_reps.Get();
  double events = 0.0;
  double seconds = 0.0;
  for (std::int64_t rep = 0; rep < reps; ++rep) {
    gen::StreamConfig cfg;
    cfg.num_tasks = scale.num_tasks;
    cfg.num_workers = scale.num_workers;
    cfg.seed = exp::RepSeed(static_cast<std::uint64_t>(FLAG_seed.Get()), rep);
    LTC_ASSIGN_OR_RETURN(io::EventLog log, gen::GenerateStreamEvents(cfg));
    if (metric != nullptr) {
      LTC_ASSIGN_OR_RETURN(log.accuracy,
                           model::RebindMetric(*log.accuracy, metric));
    }

    svc::StreamOptions options = batching;
    options.algorithm = algorithm;
    options.seed = cfg.seed;
    options.shards = static_cast<int>(shards);
    // Measure the serving path only: the commit-time constraint checks are
    // bookkeeping inside ReplayEventLog's timed window and would pollute
    // events/sec (tests cover validity; benches measure).
    options.validate = false;
    LTC_ASSIGN_OR_RETURN(svc::ReplayResult replay,
                         svc::ReplayEventLog(log, options));

    events += static_cast<double>(replay.stream.events);
    seconds += replay.run.runtime_seconds;
    cell.mean_latency += static_cast<double>(replay.run.latency);
    cell.mean_assignment_latency += replay.stream.assignment_latency.mean;
    cell.p95_assignment_latency += replay.stream.assignment_latency.p95;
    cell.p99_assignment_latency += replay.stream.assignment_latency.p99;
    if (replay.stream.open_tasks == 0) ++cell.completed_runs;
    ++cell.runs;
  }
  const double n = static_cast<double>(reps);
  cell.events_per_sec = seconds > 0.0 ? events / seconds : 0.0;
  cell.mean_latency /= n;
  cell.mean_assignment_latency /= n;
  cell.p95_assignment_latency /= n;
  cell.p99_assignment_latency /= n;
  cell.mean_runtime_seconds = seconds / n;
  return cell;
}

int Main(int argc, char** argv) {
  const Status parsed = ParseCommandLine(argc, argv);
  if (!parsed.ok()) {
    std::fprintf(stderr, "%s\n", parsed.ToString().c_str());
    return parsed.IsFailedPrecondition() ? 0 : 1;
  }

  const std::vector<StreamCase> all_cases = {
      {"10k", 250, 10000},
      {"40k", 1000, 40000},
  };
  // "MCF" (the streaming MCF-LTC batch scheduler, PR 6) extends the online
  // roster; bench_compare gates only cells shared with a baseline, so older
  // baselines without MCF cells still gate cleanly.
  const std::vector<std::string> algorithms = {"Random", "LAF", "AAM", "MCF"};

  std::vector<StreamCase> cases;
  if (FLAG_cases.Get().empty()) {
    cases = all_cases;
  } else {
    for (const std::string& part : Split(FLAG_cases.Get(), ',')) {
      const std::string label = Trim(part);
      bool found = false;
      for (const StreamCase& c : all_cases) {
        if (c.label == label) {
          cases.push_back(c);
          found = true;
        }
      }
      if (!found) {
        std::fprintf(stderr, "unknown case label '%s'\n", label.c_str());
        return 1;
      }
    }
  }

  // The deadline policy and batch deadline every cell runs with.
  svc::StreamOptions batching;
  bool road = false;
  const Status flag_values = svc::ParseMetricAndDeadline(
      FLAG_metric.Get(), FLAG_deadline.Get(), FLAG_deadline_cap.Get(), &road,
      &batching);
  if (!flag_values.ok()) {
    std::fprintf(stderr, "%s\n", flag_values.ToString().c_str());
    return 1;
  }

  // --metric=road: one street grid shared by every cell, matching the
  // stream generator's world side. Travel time >= Euclidean distance, so
  // eligibility shrinks and the per-gather Dijkstra cost shows up in
  // events/sec — which is exactly what BENCH_PR8.json gates.
  std::shared_ptr<const geo::Metric> metric;
  if (road) {
    gen::RoadConfig road_config;
    // Dense enough that snap legs (≈ half the ~10.5-unit spacing) stay
    // small against dmax = 30; at the default 32x32 the spacing alone
    // exceeds the accuracy range and eligibility collapses.
    road_config.rows = 96;
    road_config.cols = 96;
    auto built = gen::GenerateGridRoadGraph(road_config);
    if (!built.ok()) {
      std::fprintf(stderr, "%s\n", built.status().ToString().c_str());
      return 1;
    }
    metric = std::make_shared<geo::RoadMetric>(
        std::make_shared<geo::RoadGraph>(std::move(built).value()));
  }

  std::vector<std::int64_t> shard_counts;
  for (const std::string& part : Split(FLAG_shards.Get(), ',')) {
    std::int64_t k = 0;
    if (!ParseInt64(Trim(part), &k) || k < 1) {
      std::fprintf(stderr, "bad --shards entry '%s'\n", part.c_str());
      return 1;
    }
    shard_counts.push_back(k);
  }

  Stopwatch total;
  std::string figure = metric != nullptr ? "stream_throughput_road"
                                         : "stream_throughput";
  if (batching.deadline_policy == svc::DeadlinePolicy::kAdaptive) {
    figure += "_adaptive";
  }
  std::string json = StrFormat(
      "{\n  \"figure\": \"%s\",\n  \"factor\": \"events\",\n"
      "  \"paper_scale\": false,\n  \"reps\": %lld,\n  \"seed\": %lld,\n"
      "  \"cases\": [\n",
      figure.c_str(), static_cast<long long>(FLAG_reps.Get()),
      static_cast<long long>(FLAG_seed.Get()));
  struct CasePoint {
    StreamCase scale;
    std::int64_t shards;
  };
  std::vector<CasePoint> points;
  for (const StreamCase& scale : cases) {
    for (const std::int64_t shards : shard_counts) {
      points.push_back(CasePoint{scale, shards});
    }
  }

  bool first_case = true;
  for (const CasePoint& point : points) {
    const StreamCase& scale = point.scale;
    const std::int64_t shards = point.shards;
    const std::string label =
        StrFormat("%s@s%lld", scale.label.c_str(),
                  static_cast<long long>(shards));
    std::printf("-- stream %s: |T|=%lld |W|=%lld deadline=%s shards=%lld --\n",
                scale.label.c_str(), static_cast<long long>(scale.num_tasks),
                static_cast<long long>(scale.num_workers),
                FLAG_deadline.Get().c_str(), static_cast<long long>(shards));
    json += StrFormat("%s    {\"label\": \"%s\", \"algorithms\": [\n",
                      first_case ? "" : ",\n", label.c_str());
    first_case = false;
    bool first_algo = true;
    for (const std::string& algorithm : algorithms) {
      auto cell = RunCell(scale, shards, algorithm, metric, batching);
      if (!cell.ok()) {
        std::fprintf(stderr, "%s\n", cell.status().ToString().c_str());
        return 1;
      }
      const CellResult& r = cell.value();
      std::printf(
          "%-8s %10.0f events/s  assignment latency mean %.3f p95 %.3f "
          "p99 %.3f  (%lld/%lld complete)\n",
          r.name.c_str(), r.events_per_sec, r.mean_assignment_latency,
          r.p95_assignment_latency, r.p99_assignment_latency,
          static_cast<long long>(r.completed_runs),
          static_cast<long long>(r.runs));
      json += StrFormat(
          "%s      {\"name\": \"%s\", \"mean_latency\": %.3f, "
          "\"events_per_sec\": %.1f, \"mean_assignment_latency\": %.6f, "
          "\"p95_assignment_latency\": %.6f, "
          "\"p99_assignment_latency\": %.6f, "
          "\"mean_runtime_seconds\": %.6f, \"completed_runs\": %lld, "
          "\"runs\": %lld}",
          first_algo ? "" : ",\n", r.name.c_str(), r.mean_latency,
          r.events_per_sec, r.mean_assignment_latency,
          r.p95_assignment_latency, r.p99_assignment_latency,
          r.mean_runtime_seconds, static_cast<long long>(r.completed_runs),
          static_cast<long long>(r.runs));
      first_algo = false;
    }
    json += "\n    ]}";
  }
  json += "\n  ]\n}\n";

  if (!FLAG_json.Get().empty()) {
    const Status written = io::WriteFile(FLAG_json.Get(), json);
    if (!written.ok()) {
      std::fprintf(stderr, "%s\n", written.ToString().c_str());
      return 1;
    }
    std::printf("JSON summary written to %s\n", FLAG_json.Get().c_str());
  }
  std::printf("total: %.1fs\n", total.ElapsedSeconds());
  return 0;
}

}  // namespace
}  // namespace ltc

int main(int argc, char** argv) { return ltc::Main(argc, argv); }
