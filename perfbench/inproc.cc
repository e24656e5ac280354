// The in-process workloads (hotspot_adaptive_s4, road_s1): the benchmark
// drives svc::ShardedStreamEngine through Create / OnEvent / Finish, the
// engine RecoverableService runs. TraceEngine's traced passes serve every
// workload's --trace 1 run.

#include <malloc.h>

#include <algorithm>
#include <cstdio>
#include <functional>

#include "bench.h"
#include "common/string_util.h"
#include "geo/road_graph.h"
#include "layers.h"
#include "model/accuracy.h"
#include "svc/sharded_engine.h"

namespace ltc {
namespace perfbench {

namespace {

using Engine = svc::ShardedStreamEngine;

/// Rounds committed so far: a call that raises this committed a round.
std::int64_t Rounds(const Engine& engine) {
  std::int64_t n = 0;
  for (int k = 0; k < engine.num_shards(); ++k) {
    n += engine.pipeline(k).batches();
  }
  return n;
}

bool SamePrefix(const std::vector<svc::StreamAssignment>& got,
                const Input& in, std::size_t events_applied) {
  const std::size_t want =
      events_applied == 0
          ? 0
          : static_cast<std::size_t>(in.golden_count_after[events_applied - 1]);
  if (got.size() != want) return false;
  for (std::size_t i = 0; i < want; ++i) {
    const svc::StreamAssignment& a = got[i];
    const svc::StreamAssignment& b = in.golden_assignments[i];
    if (a.time != b.time || a.worker != b.worker || a.task != b.task) {
      return false;
    }
  }
  return true;
}

/// The system's set-up: for road_s1 the ltc-road parse and RoadGraph build
/// (and the accuracy model rebound onto it), then engine Create. Returns
/// the engine ready for its first event.
struct Setup {
  double load_s = 0.0;    // road graph load (0 for Euclidean workloads)
  double create_s = 0.0;  // ShardedStreamEngine::Create
  std::unique_ptr<Engine> engine;
};
StatusOr<Setup> SetUp(const Workload& w, const Input& in,
                      const svc::StreamOptions& options,
                      std::shared_ptr<CountingMetric>* counting = nullptr) {
  Setup s;
  io::EventLog header = in.header;
  const double t0 = Now();
  if (w.road) {
    LTC_ASSIGN_OR_RETURN(geo::RoadGraph graph,
                         geo::RoadGraph::Load(in.road_path));
    std::shared_ptr<const geo::Metric> metric =
        std::make_shared<geo::RoadMetric>(
            std::make_shared<geo::RoadGraph>(std::move(graph)));
    if (counting != nullptr) {
      *counting = std::make_shared<CountingMetric>(metric);
      metric = *counting;
    }
    LTC_ASSIGN_OR_RETURN(header.accuracy,
                         model::RebindMetric(*header.accuracy, metric));
  } else if (counting != nullptr) {
    *counting = std::make_shared<CountingMetric>(
        header.accuracy->DistanceMetric());
    LTC_ASSIGN_OR_RETURN(header.accuracy,
                         model::RebindMetric(*header.accuracy, *counting));
  }
  const double t1 = Now();
  LTC_ASSIGN_OR_RETURN(s.engine, Engine::Create(header, options));
  const double t2 = Now();
  s.load_s = t1 - t0;
  s.create_s = t2 - t1;
  return s;
}

/// A closed-loop pass's measurements.
struct ClosedPass {
  double seconds = 0.0;        // first event offered .. Finish returned
  std::int64_t maxrss_kb = 0;  // ru_maxrss when Finish returned
  double rss_mb = 0.0;         // peak RSS the pass added (ClosedLoop)
  bool log_ok = false;         // rendered log == golden
};

/// One closed-loop pass in this process: Create, every event, Finish. The
/// traced fan-out comparison runs it directly.
StatusOr<ClosedPass> InProcessPass(const Workload& w, const RunConfig& run,
                                   const Input& in, int threads) {
  svc::StreamOptions options = w.options;
  options.threads = threads;
  LTC_ASSIGN_OR_RETURN(auto engine, Engine::Create(in.header, options));
  ClosedPass pass;
  const double t0 = Now();
  for (const io::Event& e : in.log.events) {
    LTC_RETURN_IF_ERROR(engine->OnEvent(e));
  }
  LTC_ASSIGN_OR_RETURN(const svc::StreamMetrics metrics, engine->Finish());
  pass.seconds = Now() - t0;
  pass.maxrss_kb = MaxRssKb();
  pass.log_ok = Served(run, RenderLog(w, in, engine->assignments(),
                                      metrics)) == in.golden_log;
  return pass;
}

/// Starts the forker of the closed-loop passes: each runs in its own child,
/// so every pass starts from the same heap and its peak RSS is its own.
/// Callers start it before any phase allocates, from a process with no
/// live threads.
StatusOr<std::unique_ptr<PassForker>> StartClosedLoops(const Workload& w,
                                                       const RunConfig& run,
                                                       const Input& in) {
  // Return free heap pages to the kernel first, so a pass's allocations
  // fault in fresh pages instead of reusing resident ones unseen.
  ::malloc_trim(0);
  std::fflush(nullptr);
  return PassForker::Start([&w, &run, &in]() -> StatusOr<std::string> {
    const std::int64_t rss0 = MaxRssKb();
    LTC_ASSIGN_OR_RETURN(const ClosedPass pass,
                         InProcessPass(w, run, in, w.options.threads));
    return StrFormat("%.17g %.17g %d", pass.seconds,
                     static_cast<double>(pass.maxrss_kb - rss0) / 1024.0,
                     pass.log_ok ? 1 : 0);
  });
}

/// One closed-loop pass through the forker.
StatusOr<ClosedPass> ClosedLoop(PassForker* forker) {
  LTC_ASSIGN_OR_RETURN(const std::string msg, forker->Run());
  ClosedPass pass;
  int same = 0;
  if (std::sscanf(msg.c_str(), "%lf %lf %d", &pass.seconds, &pass.rss_mb,
                  &same) != 3) {
    return Status::Internal("closed loop: bad child report '" + msg + "'");
  }
  pass.log_ok = same == 1;
  return pass;
}

/// The fan-out comparison's thread count (nproc on the reference box).
constexpr int kFanoutThreads = 4;
/// Reference open-loop passes per run (RepeatedOpen).
constexpr int kOpenLoopPasses = 3;

/// One open-loop pass: event i is due at t0 + i / rate whatever happened
/// before it. A call that commits a round is a result; its latency runs
/// from the event's due time to the call's return.
struct OpenPass {
  std::vector<double> latency_ms;
  std::vector<double> lag_ms;  // generator lateness per event
  std::int64_t offered = 0;
  std::int64_t failed = 0;
  double lag_growth_ms = 0.0;  // median lag, last quarter minus first
  bool output_ok = false;
};
StatusOr<OpenPass> OpenLoop(const Workload& w, const Input& in, double rate,
                            std::size_t n) {
  n = std::min(n, in.log.events.size());
  LTC_ASSIGN_OR_RETURN(auto engine, Engine::Create(in.header, w.options));
  OpenPass pass;
  pass.latency_ms.reserve(n);
  pass.lag_ms.reserve(n);
  std::size_t applied = 0;
  const double t0 = Now() + 1e-3;
  for (std::size_t i = 0; i < n; ++i) {
    const double due = t0 + static_cast<double>(i) / rate;
    double start = Now();
    while (start < due) start = Now();
    const std::int64_t rounds = Rounds(*engine);
    const Status st = engine->OnEvent(in.log.events[i]);
    const double end = Now();
    ++pass.offered;
    pass.lag_ms.push_back((start - due) * 1e3);
    if (!st.ok()) {
      // A failed event misses any latency limit.
      ++pass.failed;
      pass.latency_ms.push_back(1e300);
      std::fprintf(stderr, "perfbench: open loop event %zu: %s\n", i,
                   st.ToString().c_str());
      break;
    }
    ++applied;
    if (Rounds(*engine) != rounds) pass.latency_ms.push_back((end - due) * 1e3);
  }
  const std::size_t q = pass.lag_ms.size() / 4;
  if (q > 0) {
    pass.lag_growth_ms =
        Median(std::vector<double>(pass.lag_ms.end() - q,
                                   pass.lag_ms.end())) -
        Median(std::vector<double>(pass.lag_ms.begin(),
                                   pass.lag_ms.begin() + q));
  }
  pass.output_ok = pass.failed == 0 && SamePrefix(engine->assignments(), in,
                                                  applied);
  return pass;
}

/// The reference open loop: `reps` passes over the same events, each
/// result's latency (and each event's lateness) taken as the least of its
/// measurements. Which calls commit a round is a function of the events,
/// so results line up across passes; hypervisor steal and preemption
/// seldom hit the same event in every pass, so the percentiles describe
/// the program. The first pass's raw percentiles are kept for the notes.
struct RepeatedOpen {
  OpenPass best;  // element-wise minimum over the passes
  OpenPass first;
  int passes = 0;
};
Status MergeMin(OpenPass p, RepeatedOpen* acc) {
  if (acc->passes++ == 0) {
    acc->first = p;
    acc->best = std::move(p);
    return Status::OK();
  }
  OpenPass& b = acc->best;
  b.offered += p.offered;
  b.failed += p.failed;
  b.output_ok = b.output_ok && p.output_ok;
  if (p.latency_ms.size() != b.latency_ms.size() ||
      p.lag_ms.size() != b.lag_ms.size()) {
    return Status::Internal("open loop: passes disagree on the results");
  }
  for (std::size_t i = 0; i < b.latency_ms.size(); ++i) {
    b.latency_ms[i] = std::min(b.latency_ms[i], p.latency_ms[i]);
  }
  for (std::size_t i = 0; i < b.lag_ms.size(); ++i) {
    b.lag_ms[i] = std::min(b.lag_ms[i], p.lag_ms[i]);
  }
  const std::size_t q = b.lag_ms.size() / 4;
  if (q > 0) {
    b.lag_growth_ms =
        Median(std::vector<double>(b.lag_ms.end() - q, b.lag_ms.end())) -
        Median(std::vector<double>(b.lag_ms.begin(), b.lag_ms.begin() + q));
  }
  return Status::OK();
}
}  // namespace

Status RunInProcess(const Workload& w, const RunConfig& run, const Input& in,
                    Report* report) {
  const auto ref_n = static_cast<std::size_t>(
      static_cast<double>(w.reference_events) * run.seconds /
      kPublishedSeconds);
  const bool durable = w.snapshot_every > 0;
  if (run.trace) {
    RepeatedOpen open;
    for (int r = 0; r < kOpenLoopPasses; ++r) {
      LTC_ASSIGN_OR_RETURN(OpenPass pass,
                           OpenLoop(w, in, w.reference_eps, ref_n));
      LTC_RETURN_IF_ERROR(MergeMin(std::move(pass), &open));
    }
    report->Check("open_loop_prefix_identical", open.best.output_ok);
    report->Count(open.best.offered, open.best.failed);
    report->Metric("loadgen.lag_p99_ms", Summarize(open.best.lag_ms).p99,
                   "ms");
    if (durable) {
      LTC_RETURN_IF_ERROR(DurableLayers(w, run, in, true, 1, report).status());
    }
    return TraceEngine(w, run, in, report);
  }

  LTC_ASSIGN_OR_RETURN(const auto forker, StartClosedLoops(w, run, in));
  RepeatedOpen open;
  std::vector<double> setup_s, eps, rss, recovery_s;
  bool closed_ok = true;
  LadderResult ladder;
  const auto probe_n = static_cast<std::size_t>(
      static_cast<double>(w.probe_events) * run.seconds / kPublishedSeconds);
  // The phases of the ungated metrics.
  const auto open_pass = [&]() -> Status {
    // Latency at the fixed reference rate.
    LTC_ASSIGN_OR_RETURN(OpenPass pass,
                         OpenLoop(w, in, w.reference_eps, ref_n));
    return MergeMin(std::move(pass), &open);
  };
  const auto search_ladder = [&]() -> Status {
    // sustainable_eps: one open-loop probe per rung.
    LTC_ASSIGN_OR_RETURN(
        ladder, SearchLadder(w, [&](double rate) -> StatusOr<Probe> {
          LTC_ASSIGN_OR_RETURN(const OpenPass p,
                               OpenLoop(w, in, rate, probe_n));
          Probe probe;
          const double probe_p99 = WindowedP99(p.latency_ms);
          probe.sustainable = probe_p99 <= w.latency_limit_ms &&
                              p.lag_growth_ms <= 0.5 * w.latency_limit_ms;
          probe.detail =
              StrFormat("p99=%.3g growth=%.3g", probe_p99, p.lag_growth_ms);
          probe.output_ok = p.output_ok;
          probe.offered = p.offered;
          probe.failed = p.failed;
          return probe;
        }));
    return Status::OK();
  };
  const auto recover = [&]() -> Status {
    // recovery_s: restore the state a crash after the last event leaves
    // — through RecoverableService::Open where the workload runs durably,
    // else the engine's own Restore of its end-of-stream state.
    if (durable) {
      LTC_ASSIGN_OR_RETURN(recovery_s,
                           DurableLayers(w, run, in, false, 5, report));
      return Status::OK();
    }
    bool restored_ok = true;
    LTC_ASSIGN_OR_RETURN(
        recovery_s, Repeat(3, 0.0, [&]() -> StatusOr<double> {
          const double t0 = Now();
          LTC_ASSIGN_OR_RETURN(auto engine, Engine::Restore(
                                                in.header, w.options,
                                                in.end_state));
          const double dt = Now() - t0;
          LTC_ASSIGN_OR_RETURN(const svc::StreamMetrics m, engine->Finish());
          restored_ok = restored_ok &&
                        RenderLog(w, in, engine->assignments(), m) ==
                            in.golden_log;
          return dt;
        }));
    report->Check("restored_log_identical", restored_ok);
    report->Note("recovery_s",
                 StrFormat("ShardedStreamEngine::Restore of the "
                           "end-of-stream state (%zu bytes), median of %zu",
                           in.end_state.size(), recovery_s.size()));
    return Status::OK();
  };
  const std::vector<std::function<Status()>> ungated = {
      open_pass, search_ladder, open_pass, recover, open_pass};

  // The gated samples fill the run: closed-loop passes (events_per_sec,
  // peak_rss_mb), each followed by a batch of set-ups (setup_s), with the
  // ungated phases between them at even intervals. A slow spell of the
  // host then touches a share of every metric's samples, not all of one.
  std::size_t next = 0;
  for (int i = 0; i < w.closed_passes; ++i) {
    LTC_ASSIGN_OR_RETURN(const ClosedPass cp, ClosedLoop(forker.get()));
    eps.push_back(static_cast<double>(in.log.num_events()) / cp.seconds);
    rss.push_back(cp.rss_mb);
    closed_ok = closed_ok && cp.log_ok;

    // setup_s: launch to first event accepted.
    LTC_ASSIGN_OR_RETURN(
        const std::vector<double> setups,
        Repeat(5, 0.05, [&]() -> StatusOr<double> {
          LTC_ASSIGN_OR_RETURN(const Setup s, SetUp(w, in, w.options));
          return s.load_s + s.create_s;
        }));
    setup_s.insert(setup_s.end(), setups.begin(), setups.end());

    while (next < ungated.size() &&
           next * static_cast<std::size_t>(w.closed_passes) <
               static_cast<std::size_t>(i + 1) * ungated.size()) {
      LTC_RETURN_IF_ERROR(ungated[next++]());
    }
  }
  report->Check("closed_loop_log_identical", closed_ok);
  report->Count(w.closed_passes * in.log.num_events(), 0);
  report->Check("ladder_prefix_identical", ladder.output_ok);
  report->Count(ladder.offered, ladder.failed);
  const OpenPass& ref = open.best;
  report->Check("open_loop_prefix_identical", ref.output_ok);
  report->Count(ref.offered, ref.failed);
  const Dist lat = Summarize(ref.latency_ms);
  const double p99 = WindowedP99(ref.latency_ms);
  const Dist raw = Summarize(open.first.latency_ms);

  report->Metric("events_per_sec", Median(eps), "1/s");
  report->Metric("sustainable_eps", ladder.eps, "1/s");
  report->Metric("latency_p50_ms", lat.median, "ms");
  report->Metric("latency_p99_ms", p99, "ms");
  report->Metric("setup_s", Median(setup_s), "s");
  report->Metric("peak_rss_mb", Median(rss), "MB");
  report->Metric("recovery_s", Median(recovery_s), "s");
  ReportQuality(in, report);
  report->Note("latency",
               StrFormat("open loop at %.0f ev/s over %zu events, least of "
                         "%d passes per result: n=%lld p50=%.6g ms p%g=%.6g "
                         "ms windowed p99=%.6g ms; first pass alone: "
                         "p50=%.6g ms p99=%.6g ms",
                         w.reference_eps, ref_n, open.passes,
                         static_cast<long long>(lat.n), lat.median,
                         lat.tail_pct, lat.tail, p99, raw.median, raw.p99));
  std::string passes;
  for (double e : eps) passes += StrFormat(" %.0f", e);
  report->Note("events_per_sec",
               StrFormat("median of %zu closed-loop passes of %lld events:%s",
                         eps.size(),
                         static_cast<long long>(in.log.num_events()),
                         passes.c_str()));
  report->Note("sustainable_eps",
               StrFormat("limit p99<=%g ms, lag growth<=%g ms, %d probes "
                         "of %zu events: %s",
                         w.latency_limit_ms, 0.5 * w.latency_limit_ms,
                         ladder.probes, probe_n, ladder.trail.c_str()));
  report->Note("setup_s",
               StrFormat("median of %zu, in %d batches spread over the run",
                         setup_s.size(), w.closed_passes));
  return Status::OK();
}

Status TraceEngine(const Workload& w, const RunConfig& run, const Input& in,
                   Report* report) {
  std::vector<double> load_s, create_s;
  for (int r = 0; r < 15; ++r) {
    LTC_ASSIGN_OR_RETURN(Setup s, SetUp(w, in, w.options));
    load_s.push_back(s.load_s);
    create_s.push_back(s.create_s);
  }
  // Traced closed-loop pass: every OnEvent timed and classified.
  double buffer_s = 0.0, flush_s = 0.0, finish_s = 0.0, wall = 0.0;
  std::vector<double> flush_ms;
  std::int64_t batches = 0, worker_offers = 0;
  svc::StreamMetrics tm;
  double skew = 1.0;
  {
    const double t0 = Now();
    LTC_ASSIGN_OR_RETURN(Setup s, SetUp(w, in, w.options));
    Engine& engine = *s.engine;
    // Back-to-back spans: each OnEvent span runs from the previous call's
    // return to this call's return (one clock read per event; the loop's
    // own bookkeeping between calls is a few nanoseconds).
    double prev = Now();
    std::int64_t rounds = Rounds(engine);
    for (const io::Event& e : in.log.events) {
      LTC_RETURN_IF_ERROR(engine.OnEvent(e));
      const std::int64_t now_rounds = Rounds(engine);
      const double now = Now();
      const double dt = now - prev;
      prev = now;
      const bool committed = now_rounds != rounds;
      rounds = now_rounds;
      if (committed) {
        flush_s += dt;
        flush_ms.push_back(dt * 1e3);
      } else {
        buffer_s += dt;
      }
    }
    LTC_ASSIGN_OR_RETURN(tm, engine.Finish());
    finish_s = Now() - prev;
    wall = Now() - t0;
    report->Check("traced_log_identical",
                  RenderLog(w, in, engine.assignments(), tm) == in.golden_log);
    std::int64_t max_workers = 0;
    for (int k = 0; k < engine.num_shards(); ++k) {
      const std::int64_t n = engine.pipeline(k).instance().num_workers();
      worker_offers += n;
      max_workers = std::max(max_workers, n);
    }
    batches = Rounds(engine);
    const double mean = static_cast<double>(worker_offers) /
                        static_cast<double>(engine.num_shards());
    skew = mean > 0.0 ? static_cast<double>(max_workers) / mean : 1.0;
    const double covered = s.create_s + buffer_s + flush_s + finish_s;
    report->Metric("svc.span_coverage", covered / wall, "ratio");
  }
  report->Metric("svc.create_s", Median(create_s), "s");
  report->Metric("svc.buffer_busy_s", buffer_s, "s");
  report->Metric("svc.flush_busy_s", flush_s, "s");
  report->Metric("svc.finish_s", finish_s, "s");
  report->Metric("svc.flush_calls", static_cast<double>(flush_ms.size()),
                 "count");
  report->Metric("svc.flush_p99_ms", Summarize(flush_ms).p99, "ms");
  report->Metric("svc.batches", static_cast<double>(batches), "count");
  report->Metric("svc.batch_size_mean",
                 batches > 0 ? static_cast<double>(worker_offers) /
                                   static_cast<double>(batches)
                             : 0.0,
                 "workers");

  // Fan-out overhead: the same stream closed-loop with a 4-thread gather
  // pool minus one thread, in this process (both logs checked against the
  // golden).
  {
    LTC_ASSIGN_OR_RETURN(const ClosedPass many,
                         InProcessPass(w, run, in, kFanoutThreads));
    LTC_ASSIGN_OR_RETURN(const ClosedPass one, InProcessPass(w, run, in, 1));
    report->Check("fanout_logs_identical", many.log_ok && one.log_ok);
    report->Metric("svc.fanout_overhead_s", many.seconds - one.seconds, "s");
  }
  report->Metric("svc.shard_skew", skew, "ratio");
  report->Metric("svc.boundary_workers",
                 static_cast<double>(tm.boundary_workers), "count");
  report->Metric("svc.handoff_skips", static_cast<double>(tm.handoff_skips),
                 "count");
  report->Metric("svc.handoff_skip_ratio",
                 worker_offers > 0 ? static_cast<double>(tm.handoff_skips) /
                                         static_cast<double>(worker_offers)
                                   : 0.0,
                 "ratio");
  report->Metric("fcst.quiet_flushes", static_cast<double>(tm.quiet_flushes),
                 "count");
  report->Metric("fcst.deadline_extensions",
                 static_cast<double>(tm.deadline_extensions), "count");
  report->Metric("fcst.quiet_flush_ratio",
                 batches > 0 ? static_cast<double>(tm.quiet_flushes) /
                                   static_cast<double>(batches)
                             : 0.0,
                 "ratio");

  // geo: a counting geo::Metric decorator installed through RebindMetric;
  // the decorated run must reproduce the golden log byte for byte.
  {
    std::shared_ptr<CountingMetric> counting;
    LTC_ASSIGN_OR_RETURN(Setup s, SetUp(w, in, w.options, &counting));
    double decorated_flush_s = 0.0;
    for (const io::Event& e : in.log.events) {
      const std::int64_t rounds = Rounds(*s.engine);
      const double c0 = Now();
      LTC_RETURN_IF_ERROR(s.engine->OnEvent(e));
      if (Rounds(*s.engine) != rounds) decorated_flush_s += Now() - c0;
    }
    LTC_ASSIGN_OR_RETURN(const svc::StreamMetrics m, s.engine->Finish());
    report->Check("metric_decorator_log_identical",
                  RenderLog(w, in, s.engine->assignments(), m) ==
                      in.golden_log);
    const CountingMetric::Counts c = counting->counts();
    if (w.road) report->Metric("geo.road_load_s", Median(load_s), "s");
    report->Metric("geo.distance_calls", static_cast<double>(c.distance_calls),
                   "count");
    report->Metric("geo.distance_busy_s", c.distance_s, "s");
    report->Metric("geo.eligible_within_calls",
                   static_cast<double>(c.eligible_within_calls), "count");
    report->Metric("geo.eligible_within_busy_s", c.eligible_within_s, "s");
    report->Metric("geo.lower_bound_calls",
                   static_cast<double>(c.lower_bound_calls), "count");
    const double self = c.distance_s + c.eligible_within_s + c.lower_bound_s;
    report->Metric("geo.metric_share",
                   decorated_flush_s > 0.0 ? self / decorated_flush_s : 0.0,
                   "ratio");
  }
  return Status::OK();
}

}  // namespace perfbench
}  // namespace ltc
