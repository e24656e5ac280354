#include "svc/serve_main.h"

#include <atomic>
#include <csignal>
#include <cstdio>
#include <limits>
#include <memory>
#include <utility>

#include "common/fault_points.h"
#include "common/flags.h"
#include "common/string_util.h"
#include "common/timer.h"
#include "gen/stream.h"
#include "geo/road_graph.h"
#include "io/workload_io.h"
#include "model/accuracy.h"
#include "svc/sharded_engine.h"

namespace ltc {
namespace svc {

namespace {

Flag<std::string> FLAG_events("events", "",
                              "replay an ltc-events v1 log from this file");
Flag<bool> FLAG_synthetic("synthetic", false,
                          "generate a synthetic Poisson arrival stream "
                          "instead of reading --events");
Flag<std::int64_t> FLAG_tasks("tasks", 500, "--synthetic: task arrivals");
Flag<std::int64_t> FLAG_workers("workers", 20000,
                                "--synthetic: worker arrivals");
Flag<double> FLAG_task_rate("task_rate", 50.0,
                            "--synthetic: task arrivals per time unit");
Flag<double> FLAG_worker_rate("worker_rate", 400.0,
                              "--synthetic: worker arrivals per time unit");
Flag<double> FLAG_move_fraction("move_fraction", 0.0,
                                "--synthetic: fraction of tasks that "
                                "relocate once mid-stream");
Flag<double> FLAG_grid_side("grid_side", 1000.0,
                            "--synthetic: world side length");
Flag<std::int64_t> FLAG_hotspots(
    "hotspots", 0,
    "--synthetic: number of spatial hotspot centers arrivals cluster "
    "around (0 = the classic uniform world)");
Flag<double> FLAG_hotspot_fraction(
    "hotspot_fraction", 0.8,
    "--synthetic --hotspots>0: fraction of arrivals drawn near a hotspot "
    "instead of uniformly");
Flag<double> FLAG_hotspot_stddev(
    "hotspot_stddev", 40.0,
    "--synthetic --hotspots>0: Gaussian spread of arrivals around their "
    "hotspot center");
Flag<std::string> FLAG_algo("algo", "LAF",
                            "online scheduler to serve with (LAF, AAM, "
                            "Random, MCF)");
Flag<std::int64_t> FLAG_mcf_drift_check_every(
    "mcf_drift_check_every", 0,
    "--algo=MCF: re-solve from scratch every Nth warm solve and "
    "CHECK-fail on divergence (0 = off)");
Flag<std::string> FLAG_deadline(
    "deadline", "0",
    "batching deadline in stream time units (0 = admit every worker "
    "immediately), or 'adaptive': place each flush at the forecast's next "
    "predicted useful arrival, capped at --deadline_cap (DESIGN.md "
    "section 13)");
Flag<double> FLAG_deadline_cap(
    "deadline_cap", 0.5,
    "--deadline=adaptive: hard upper bound on how long a batch may stay "
    "open (stream time units)");
Flag<std::int64_t> FLAG_max_batch("max_batch", 0,
                                  "flush early at this many buffered "
                                  "workers (0 = unbounded)");
Flag<std::int64_t> FLAG_threads(
    "threads", 1,
    "candidate-gathering threads (0 = hardware concurrency); the "
    "assignment log is byte-identical for every value");
Flag<std::int64_t> FLAG_shards(
    "shards", 1,
    "spatial shards (grid-aligned stripes; DESIGN.md section 9). The "
    "assignment log is pinned per shard count and byte-identical across "
    "--threads");
Flag<std::int64_t> FLAG_seed("seed", 42, "RNG seed (--synthetic and Random)");
Flag<std::string> FLAG_out("out", "",
                           "write the ltc-serve v1 assignment log here");
Flag<std::string> FLAG_metrics_json("metrics_json", "",
                                    "write the service metrics JSON here");
Flag<std::string> FLAG_save_events("save_events", "",
                                   "also save the (generated) event log "
                                   "here, for later replay");
Flag<bool> FLAG_validate("validate", true,
                         "check each commit round against every LTC "
                         "constraint as it commits, up to the stream's "
                         "first task move (DESIGN.md section 8)");
Flag<std::string> FLAG_metric(
    "metric", "euclid",
    "distance backend (DESIGN.md section 12): 'euclid' (the default — "
    "byte-identical to the pre-metric service) or 'road' (shortest-path "
    "travel times over --road_graph)");
Flag<std::string> FLAG_road_graph(
    "road_graph", "",
    "--metric=road: the 'ltc-road v1' graph file travel times are "
    "measured on");
Flag<bool> FLAG_route_workers(
    "route_workers", false,
    "grow a travel route per assigned worker (cheapest insertion under "
    "the active metric) and emit deterministic worker move events "
    "('m' lines in the assignment log)");

// Durable / server mode (DESIGN.md section 11).
Flag<std::string> FLAG_state_dir(
    "state_dir", "",
    "durable state directory (WAL + snapshots). With --events/--synthetic: "
    "crash-recoverable replay. Required with --listen.");
Flag<std::int64_t> FLAG_snapshot_every(
    "snapshot_every", 0,
    "snapshot the engine state every N applied events (0 = only the final "
    "shutdown snapshot)");
Flag<std::int64_t> FLAG_snapshot_retain("snapshot_retain", 2,
                                        "snapshots kept on disk (>= 1)");
Flag<std::int64_t> FLAG_wal_group_commit(
    "wal_group_commit", 64,
    "WAL group-commit window: flush (and fsync) every N appended events");
Flag<bool> FLAG_wal_fsync("wal_fsync", true,
                          "fsync the WAL at each group-commit flush");
Flag<double> FLAG_world_side(
    "world_side", 1000.0,
    "durable modes: side of the fixed [0,side]^2 world rectangle (the grid "
    "geometry must not depend on events the service has not seen yet; "
    "out-of-world arrivals clamp into boundary cells)");
Flag<std::string> FLAG_listen(
    "listen", "",
    "serve ltc-wire v1 socket ingest on this address (unix:/PATH or "
    "tcp:PORT) instead of replaying a log; requires --state_dir");
Flag<std::int64_t> FLAG_queue_capacity(
    "queue_capacity", 4096,
    "--listen: ingest queue capacity in events, >= 1 (the backpressure "
    "high-water mark; full-queue frames are rejected, not buffered)");
Flag<std::string> FLAG_header_from(
    "header_from", "",
    "--listen: take the instance parameters (epsilon, capacity, acc_min, "
    "accuracy) from this ltc-events file's header instead of the Table-IV "
    "defaults");

// SIGINT/SIGTERM request a graceful drain of the socket server: stop
// accepting, apply every admitted event, final snapshot, close the WAL.
std::atomic<bool> g_stop_requested{false};

void HandleStopSignal(int) { g_stop_requested.store(true); }

int FailConfig(const Status& status) {
  std::fprintf(stderr, "ltc_serve: %s\n", status.ToString().c_str());
  return 1;
}

int FailRuntime(const Status& status) {
  std::fprintf(stderr, "ltc_serve: %s\n", status.ToString().c_str());
  return 2;
}

void PrintRecovery(const RecoverableService::RecoveryInfo& r) {
  if (!r.recovered) return;
  std::printf(
      "recovered: %lld durable WAL event(s), snapshot at %lld, %lld "
      "replayed, %d snapshot(s) discarded, %lld torn byte(s) truncated\n",
      static_cast<long long>(r.wal_records),
      static_cast<long long>(r.snapshot_events),
      static_cast<long long>(r.replayed), r.snapshots_discarded,
      static_cast<long long>(r.wal_truncated_bytes));
}

/// Writes --out / --metrics_json and prints the human summary. Returns the
/// process exit code (0 or 2).
int EmitReport(const ServeReport& report, const StreamOptions& options,
               const std::string& extra_json_members) {
  if (!FLAG_out.Get().empty()) {
    const Status written =
        io::WriteFile(FLAG_out.Get(), report.assignment_log);
    if (!written.ok()) return FailRuntime(written);
  }
  const std::string metrics_json =
      ServeMetricsJson(report, extra_json_members);
  if (!FLAG_metrics_json.Get().empty()) {
    const Status written =
        io::WriteFile(FLAG_metrics_json.Get(), metrics_json);
    if (!written.ok()) return FailRuntime(written);
  }

  const StreamMetrics& m = report.metrics;
  PrintRecovery(report.recovery);
  std::printf(
      "%s served %lld event(s) on %lld shard(s): %lld batch(es), "
      "%lld assignment(s), %lld/%lld task(s) completed in %.3fs "
      "(%.0f events/s)\n",
      options.algorithm.c_str(), static_cast<long long>(m.events),
      static_cast<long long>(m.shards), static_cast<long long>(m.batches),
      static_cast<long long>(m.assignments),
      static_cast<long long>(m.tasks_completed),
      static_cast<long long>(m.task_events), report.run.runtime_seconds,
      report.run.runtime_seconds > 0.0
          ? static_cast<double>(m.events) / report.run.runtime_seconds
          : 0.0);
  std::printf("assignment latency: mean %.3f p50 %.3f p95 %.3f p99 %.3f "
              "(stream time units)\n",
              m.assignment_latency.mean, m.assignment_latency.p50,
              m.assignment_latency.p95, m.assignment_latency.p99);
  if (FLAG_out.Get().empty()) {
    std::printf("(pass --out=FILE to write the assignment log)\n");
  }
  return 0;
}

/// The --listen mode: open (or recover) the durable service, hand it to the
/// injected socket transport until a finish frame or SIGINT/SIGTERM, then
/// drain, Finish, and report — with the ingest admission counters in the
/// stdout footer and metrics JSON (never in the assignment log, which must
/// stay byte-identical across restarts).
int RunSocketServer(const StreamOptions& options,
                    const std::shared_ptr<const geo::Metric>& metric,
                    const SocketServeFn& socket_serve) {
  io::EventLog header;
  if (!FLAG_header_from.Get().empty()) {
    auto loaded = io::LoadEventLog(FLAG_header_from.Get());
    if (!loaded.ok()) {
      return FailConfig(loaded.status().WithContext("--header_from"));
    }
    header = std::move(loaded).value();
    header.events.clear();
  } else {
    // The Table-IV synthetic defaults (gen/stream.h).
    header.epsilon = 0.1;
    header.capacity = 6;
    header.acc_min = model::kDefaultAccMin;
    header.accuracy = std::make_shared<model::SigmoidDistanceAccuracy>(30.0);
  }

  RecoverableService::Options sopts;
  sopts.state_dir = FLAG_state_dir.Get();
  sopts.stream = options;
  sopts.wal.group_commit = FLAG_wal_group_commit.Get();
  sopts.wal.fsync = FLAG_wal_fsync.Get();
  sopts.snapshot_every = FLAG_snapshot_every.Get();
  sopts.snapshot_retain = static_cast<int>(FLAG_snapshot_retain.Get());
  sopts.metric = metric;

  Stopwatch watch;
  auto service = RecoverableService::Open(header, sopts);
  if (!service.ok()) return FailRuntime(service.status());
  PrintRecovery(service.value()->recovery());

  std::signal(SIGINT, HandleStopSignal);
  std::signal(SIGTERM, HandleStopSignal);

  SocketServeRequest request;
  request.listen = FLAG_listen.Get();
  request.queue_capacity =
      static_cast<std::size_t>(FLAG_queue_capacity.Get());
  request.stop_flag = &g_stop_requested;
  std::printf("listening on %s (queue capacity %zu event(s))\n",
              request.listen.c_str(), request.queue_capacity);
  std::fflush(stdout);

  auto served = socket_serve(service.value().get(), request);
  if (!served.ok()) {
    // Abort: leave the durable state for the next recovery.
    return FailRuntime(served.status().WithContext("socket serve"));
  }

  ServeReport report;
  report.durable = true;
  report.recovery = service.value()->recovery();
  auto metrics = service.value()->Finish();
  if (!metrics.ok()) {
    return FailRuntime(metrics.status().WithContext("graceful drain"));
  }
  report.metrics = std::move(metrics).value();
  report.run =
      service.value()->engine().RunMetricsView(watch.ElapsedSeconds());
  report.assignment_log = RenderAssignmentLog(
      options, service.value()->assignments(), report.metrics,
      &service.value()->engine().worker_moves(),
      MetricLabel(service.value()->header()));

  const SocketServeResult& ing = served.value();
  std::string extra;
  extra += StrFormat("  \"ingest_frames\": %lld,\n",
                     static_cast<long long>(ing.frames));
  extra += StrFormat("  \"ingest_frames_rejected\": %lld,\n",
                     static_cast<long long>(ing.frames_rejected));
  extra += StrFormat("  \"ingest_events_admitted\": %lld,\n",
                     static_cast<long long>(ing.events_admitted));
  extra += StrFormat("  \"ingest_events_rejected\": %lld,\n",
                     static_cast<long long>(ing.events_rejected));
  extra += StrFormat("  \"ingest_queue_high_water\": %lld,\n",
                     static_cast<long long>(ing.queue_high_water));
  auto shard_array = [](const std::vector<std::int64_t>& v) {
    std::string s = "[";
    for (std::size_t i = 0; i < v.size(); ++i) {
      if (i > 0) s += ", ";
      s += StrFormat("%lld", static_cast<long long>(v[i]));
    }
    s += "]";
    return s;
  };
  extra += "  \"ingest_admitted_per_shard\": " +
           shard_array(ing.admitted_per_shard) + ",\n";
  extra += "  \"ingest_rejected_per_shard\": " +
           shard_array(ing.rejected_per_shard) + ",\n";

  const int code = EmitReport(report, options, extra);
  std::printf(
      "ingest: %lld frame(s) (%lld rejected), %lld event(s) admitted, "
      "%lld rejected, queue high-water %lld\n",
      static_cast<long long>(ing.frames),
      static_cast<long long>(ing.frames_rejected),
      static_cast<long long>(ing.events_admitted),
      static_cast<long long>(ing.events_rejected),
      static_cast<long long>(ing.queue_high_water));
  for (std::size_t s = 0; s < ing.admitted_per_shard.size(); ++s) {
    std::printf("  shard %zu: admitted %lld rejected %lld\n", s,
                static_cast<long long>(ing.admitted_per_shard[s]),
                s < ing.rejected_per_shard.size()
                    ? static_cast<long long>(ing.rejected_per_shard[s])
                    : 0LL);
  }
  if (code == 0) {
    std::printf("clean drain (%s): final snapshot written, WAL closed\n",
                g_stop_requested.load() ? "signal" : "finish frame");
  }
  return code;
}

}  // namespace

int ServeMain(int argc, char** argv, SocketServeFn socket_serve) {
  const Status parsed = ParseCommandLine(argc, argv);
  if (!parsed.ok()) {
    std::fprintf(stderr, "%s\n", parsed.ToString().c_str());
    return parsed.IsFailedPrecondition() ? 0 : 1;
  }
  const int armed = FaultPoints::Instance().ArmFromEnv();
  if (armed > 0) {
    std::fprintf(stderr,
                 "ltc_serve: armed %d fault point(s) from LTC_FAULTS\n",
                 armed);
  }

  const bool socket_mode = !FLAG_listen.Get().empty();
  const bool durable = !FLAG_state_dir.Get().empty();
  if (socket_mode) {
    if (!durable) {
      return FailConfig(Status::InvalidArgument(
          "--listen requires --state_dir (the server is always durable)"));
    }
    if (!socket_serve) {
      return FailConfig(Status::NotImplemented(
          "this binary was built without a socket transport"));
    }
    if (!FLAG_events.Get().empty() || FLAG_synthetic.Get()) {
      return FailConfig(Status::InvalidArgument(
          "--listen takes its events from the socket; drop "
          "--events/--synthetic"));
    }
    // A capacity of 0 would reject every frame; a negative one would wrap
    // to an unbounded queue and void the backpressure contract.
    if (FLAG_queue_capacity.Get() < 1) {
      return FailConfig(
          Status::InvalidArgument("--queue_capacity must be >= 1"));
    }
  } else if (FLAG_events.Get().empty() == !FLAG_synthetic.Get()) {
    return FailConfig(Status::InvalidArgument(
        "pass exactly one of --events=FILE, --synthetic, or --listen=ADDR"));
  }

  StreamOptions options;
  options.algorithm = FLAG_algo.Get();
  bool road = false;
  const Status flag_values =
      ParseMetricAndDeadline(FLAG_metric.Get(), FLAG_deadline.Get(),
                             FLAG_deadline_cap.Get(), &road, &options);
  if (!flag_values.ok()) return FailConfig(flag_values);
  options.max_batch = FLAG_max_batch.Get();
  options.seed = static_cast<std::uint64_t>(FLAG_seed.Get());
  options.threads = static_cast<int>(FLAG_threads.Get());
  options.shards = static_cast<int>(FLAG_shards.Get());
  options.validate = FLAG_validate.Get();
  options.mcf_drift_check_every =
      static_cast<int>(FLAG_mcf_drift_check_every.Get());
  options.route_workers = FLAG_route_workers.Get();
  // These int options come from int64 flags: reject a value that wraps
  // when narrowed (--shards=4294967299 would serve 3 shards).
  if (options.threads != FLAG_threads.Get() ||
      options.shards != FLAG_shards.Get() ||
      options.mcf_drift_check_every != FLAG_mcf_drift_check_every.Get()) {
    return FailConfig(Status::InvalidArgument(
        "--threads, --shards and --mcf_drift_check_every must fit an int"));
  }
  const Status options_valid = ValidateStreamOptions(options);
  if (!options_valid.ok()) return FailConfig(options_valid);

  // Distance backend. The metric object lives here and is (re)bound onto
  // whichever header the chosen mode resolves; durable modes also carry it
  // through RecoverableService::Options so recovery rebinds too.
  std::shared_ptr<const geo::Metric> metric;
  if (road) {
    if (FLAG_road_graph.Get().empty()) {
      return FailConfig(Status::InvalidArgument(
          "--metric=road requires --road_graph=FILE ('ltc-road v1')"));
    }
    auto graph = geo::RoadGraph::Load(FLAG_road_graph.Get());
    if (!graph.ok()) {
      return FailConfig(graph.status().WithContext("--road_graph"));
    }
    metric = std::make_shared<geo::RoadMetric>(
        std::make_shared<geo::RoadGraph>(std::move(graph).value()));
  }
  if (durable) {
    // Durable runs fix their grid geometry up front (svc/recoverable.h).
    const double side = FLAG_world_side.Get();
    if (!(side > 0.0)) {
      return FailConfig(
          Status::InvalidArgument("--world_side must be positive"));
    }
    options.world = geo::Rect{0.0, 0.0, side, side};
    const std::int64_t retain = FLAG_snapshot_retain.Get();
    if (retain < 1 || retain > std::numeric_limits<int>::max()) {
      return FailConfig(Status::InvalidArgument(
          StrFormat("--snapshot_retain must be in [1, %d]",
                    std::numeric_limits<int>::max())));
    }
  }

  if (socket_mode) return RunSocketServer(options, metric, socket_serve);

  io::EventLog log;
  if (FLAG_synthetic.Get()) {
    gen::StreamConfig cfg;
    cfg.num_tasks = FLAG_tasks.Get();
    cfg.num_workers = FLAG_workers.Get();
    cfg.task_rate = FLAG_task_rate.Get();
    cfg.worker_rate = FLAG_worker_rate.Get();
    cfg.move_fraction = FLAG_move_fraction.Get();
    cfg.grid_side = FLAG_grid_side.Get();
    cfg.num_hotspots = FLAG_hotspots.Get();
    cfg.hotspot_fraction = FLAG_hotspot_fraction.Get();
    cfg.hotspot_stddev = FLAG_hotspot_stddev.Get();
    cfg.seed = static_cast<std::uint64_t>(FLAG_seed.Get());
    auto generated = gen::GenerateStreamEvents(cfg);
    if (!generated.ok()) return FailConfig(generated.status());
    log = std::move(generated).value();
  } else {
    auto loaded = io::LoadEventLog(FLAG_events.Get());
    if (!loaded.ok()) return FailConfig(loaded.status());
    log = std::move(loaded).value();
  }
  if (!FLAG_save_events.Get().empty()) {
    const Status saved = io::SaveEventLog(log, FLAG_save_events.Get());
    if (!saved.ok()) return FailRuntime(saved);
  }
  if (metric != nullptr && log.accuracy != nullptr) {
    auto rebound = model::RebindMetric(*log.accuracy, metric);
    if (!rebound.ok()) {
      return FailConfig(rebound.status().WithContext("--metric"));
    }
    log.accuracy = std::move(rebound).value();
  }

  StatusOr<ServeReport> report = Status::Internal("unreachable");
  if (durable) {
    DurableConfig dcfg;
    dcfg.state_dir = FLAG_state_dir.Get();
    dcfg.wal.group_commit = FLAG_wal_group_commit.Get();
    dcfg.wal.fsync = FLAG_wal_fsync.Get();
    dcfg.snapshot_every = FLAG_snapshot_every.Get();
    dcfg.snapshot_retain = static_cast<int>(FLAG_snapshot_retain.Get());
    dcfg.metric = metric;
    report = RunDurableService(log, options, dcfg);
  } else {
    report = RunService(log, options);
  }
  if (!report.ok()) return FailRuntime(report.status());
  return EmitReport(report.value(), options, "");
}

}  // namespace svc
}  // namespace ltc
