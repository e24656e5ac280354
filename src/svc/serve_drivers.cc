// The flag-free half of svc/serve_main.h: the service drivers, renderers
// and shared flag-value parsing that other binaries link (exp's deadline
// suite, bench_serve_e2e, bench_stream_throughput) without pulling in
// ltc_serve's flags, which only serve_main.cc defines.

#include "svc/serve_main.h"

#include <charconv>
#include <memory>
#include <string>
#include <vector>

#include "common/line_scanner.h"
#include "common/string_util.h"
#include "common/timer.h"
#include "svc/sharded_engine.h"

namespace ltc {
namespace svc {

std::string MetricLabel(const io::EventLog& header) {
  if (header.accuracy == nullptr) return "";
  const geo::Metric& metric = *header.accuracy->DistanceMetric();
  if (metric.euclidean()) return "";
  std::string name = metric.Name();
  const auto paren = name.find('(');
  if (paren != std::string::npos) name.resize(paren);
  return name;
}

Status ParseMetricAndDeadline(const std::string& metric,
                              const std::string& deadline,
                              double deadline_cap, bool* road,
                              StreamOptions* options) {
  if (metric != "euclid" && metric != "road") {
    return Status::InvalidArgument(StrFormat(
        "unknown --metric '%s' (expected euclid or road)", metric.c_str()));
  }
  *road = metric == "road";
  if (deadline == "adaptive") {
    if (!(deadline_cap > 0.0)) {
      return Status::InvalidArgument(
          "--deadline=adaptive requires a positive --deadline_cap");
    }
    options->deadline_policy = DeadlinePolicy::kAdaptive;
    options->batch_deadline = deadline_cap;
    return Status::OK();
  }
  if (!ParseDouble(deadline, &options->batch_deadline)) {
    return Status::InvalidArgument(StrFormat(
        "--deadline must be a number of stream time units or 'adaptive' "
        "(got '%s')",
        deadline.c_str()));
  }
  options->deadline_policy = DeadlinePolicy::kFixed;
  return Status::OK();
}

std::string RenderAssignmentLog(
    const StreamOptions& options,
    const std::vector<StreamAssignment>& assignments,
    const StreamMetrics& metrics, const std::vector<WorkerMove>* moves,
    const std::string& metric_label) {
  std::string out = "# ltc-serve v1\n";
  out += StrFormat(
      "# algorithm %s deadline %.17g max_batch %lld seed %llu shards %d",
      options.algorithm.c_str(), options.batch_deadline,
      static_cast<long long>(options.max_batch),
      static_cast<unsigned long long>(options.seed), options.shards);
  // Non-default segments only — the default header bytes are unchanged.
  if (options.deadline_policy == DeadlinePolicy::kAdaptive) {
    out += StrFormat(" policy adaptive horizon %.17g", kForecastHorizon);
  }
  if (!metric_label.empty()) {
    out += StrFormat(" metric %s", metric_label.c_str());
  }
  if (options.route_workers) out += " routes 1";
  out += '\n';
  // to_chars(general, 9): the bytes of printf's "%.9g".
  const auto real = [&out](double v) {
    char buf[kRealChars];
    out.push_back(' ');
    out.append(buf, std::to_chars(buf, buf + kRealChars, v,
                                  std::chars_format::general, 9)
                        .ptr);
  };
  for (const StreamAssignment& a : assignments) {
    out.push_back('a');
    real(a.time);
    out += StrFormat(" %d %d\n", a.worker, a.task);
  }
  if (options.route_workers && moves != nullptr) {
    for (const WorkerMove& m : *moves) {
      out.push_back('m');
      real(m.time);
      out += StrFormat(" %d", m.worker);
      real(m.location.x);
      real(m.location.y);
      out += StrFormat(" %d\n", m.task);
    }
  }
  out += StrFormat(
      "# events %lld batches %lld assignments %lld completed %lld/%lld\n",
      static_cast<long long>(metrics.events),
      static_cast<long long>(metrics.batches),
      static_cast<long long>(metrics.assignments),
      static_cast<long long>(metrics.tasks_completed),
      static_cast<long long>(metrics.task_events));
  return out;
}

StatusOr<ServeReport> RunService(const io::EventLog& log,
                                 const StreamOptions& options) {
  ServeReport report;
  std::vector<StreamAssignment> assignments;
  std::vector<WorkerMove> moves;
  LTC_ASSIGN_OR_RETURN(ReplayResult replay,
                       ReplayEventLog(log, options, &assignments, &moves));
  report.metrics = replay.stream;
  report.run = replay.run;
  report.assignment_log = RenderAssignmentLog(
      options, assignments, report.metrics, &moves,
      MetricLabel(log));
  return report;
}

StatusOr<ServeReport> RunDurableService(const io::EventLog& log,
                                        const StreamOptions& options,
                                        const DurableConfig& durable) {
  LTC_RETURN_IF_ERROR(log.Validate());
  if (durable.state_dir.empty()) {
    return Status::InvalidArgument("durable replay requires a state_dir");
  }
  RecoverableService::Options sopts;
  sopts.state_dir = durable.state_dir;
  sopts.stream = options;
  sopts.wal = durable.wal;
  sopts.snapshot_every = durable.snapshot_every;
  sopts.snapshot_retain = durable.snapshot_retain;
  sopts.metric = durable.metric;

  Stopwatch watch;
  LTC_ASSIGN_OR_RETURN(auto service, RecoverableService::Open(log, sopts));
  if (service->events_applied() > log.num_events()) {
    return Status::FailedPrecondition(StrFormat(
        "state dir '%s' already holds %lld event(s) but the log replays "
        "only %lld — is this the right state dir for this stream?",
        durable.state_dir.c_str(),
        static_cast<long long>(service->events_applied()),
        static_cast<long long>(log.num_events())));
  }
  // Recovery-aware feed: the recovered prefix is already applied; ingest
  // only the suffix the service has not seen.
  for (std::int64_t i = service->events_applied(); i < log.num_events();
       ++i) {
    LTC_RETURN_IF_ERROR(
        service->Ingest(log.events[static_cast<std::size_t>(i)])
            .WithContext(StrFormat("event %lld", static_cast<long long>(i))));
  }

  ServeReport report;
  report.durable = true;
  report.recovery = service->recovery();
  LTC_ASSIGN_OR_RETURN(report.metrics, service->Finish());
  report.run = service->engine().RunMetricsView(watch.ElapsedSeconds());
  report.assignment_log = RenderAssignmentLog(
      options, service->assignments(), report.metrics,
      &service->engine().worker_moves(), MetricLabel(service->header()));
  return report;
}

std::string ServeMetricsJson(const ServeReport& report,
                             const std::string& extra_members) {
  const StreamMetrics& m = report.metrics;
  auto latency_json = [](const sim::LatencySummary& s) {
    return StrFormat(
        "{\"count\": %lld, \"mean\": %.6f, \"p50\": %.6f, \"p95\": %.6f, "
        "\"p99\": %.6f, \"max\": %.6f}",
        static_cast<long long>(s.count), s.mean, s.p50, s.p95, s.p99, s.max);
  };
  const double events_per_sec =
      report.run.runtime_seconds > 0.0
          ? static_cast<double>(m.events) / report.run.runtime_seconds
          : 0.0;
  std::string json = "{\n";
  json += extra_members;
  json += StrFormat("  \"algorithm\": \"%s\",\n",
                    JsonEscape(report.run.algorithm).c_str());
  json += StrFormat("  \"events\": %lld,\n", static_cast<long long>(m.events));
  json += StrFormat("  \"events_per_sec\": %.1f,\n", events_per_sec);
  json += StrFormat("  \"runtime_seconds\": %.6f,\n",
                    report.run.runtime_seconds);
  if (report.durable) {
    const RecoverableService::RecoveryInfo& r = report.recovery;
    json += StrFormat("  \"recovered\": %s,\n",
                      r.recovered ? "true" : "false");
    json += StrFormat("  \"recovery_wal_records\": %lld,\n",
                      static_cast<long long>(r.wal_records));
    json += StrFormat("  \"recovery_snapshot_events\": %lld,\n",
                      static_cast<long long>(r.snapshot_events));
    json += StrFormat("  \"recovery_replayed\": %lld,\n",
                      static_cast<long long>(r.replayed));
    json += StrFormat("  \"recovery_snapshots_discarded\": %d,\n",
                      r.snapshots_discarded);
    json += StrFormat("  \"recovery_wal_truncated_bytes\": %lld,\n",
                      static_cast<long long>(r.wal_truncated_bytes));
  }
  json += StrFormat("  \"shards\": %lld,\n", static_cast<long long>(m.shards));
  json += StrFormat("  \"boundary_workers\": %lld,\n",
                    static_cast<long long>(m.boundary_workers));
  json += StrFormat("  \"handoff_skips\": %lld,\n",
                    static_cast<long long>(m.handoff_skips));
  json += StrFormat("  \"batches\": %lld,\n",
                    static_cast<long long>(m.batches));
  json += StrFormat("  \"max_batch_size\": %lld,\n",
                    static_cast<long long>(m.max_batch_size));
  json += StrFormat("  \"quiet_flushes\": %lld,\n",
                    static_cast<long long>(m.quiet_flushes));
  json += StrFormat("  \"deadline_extensions\": %lld,\n",
                    static_cast<long long>(m.deadline_extensions));
  json += StrFormat("  \"assignments\": %lld,\n",
                    static_cast<long long>(m.assignments));
  json += StrFormat("  \"tasks_completed\": %lld,\n",
                    static_cast<long long>(m.tasks_completed));
  json += StrFormat("  \"open_tasks\": %lld,\n",
                    static_cast<long long>(m.open_tasks));
  json += StrFormat("  \"worker_moves\": %lld,\n",
                    static_cast<long long>(m.worker_moves));
  json += StrFormat("  \"routed_workers\": %lld,\n",
                    static_cast<long long>(m.routed_workers));
  json += StrFormat("  \"route_travel_time\": %.6f,\n",
                    m.route_travel_time);
  json += StrFormat("  \"max_worker_index\": %lld,\n",
                    static_cast<long long>(report.run.latency));
  json += StrFormat("  \"validated\": %s,\n", m.validated ? "true" : "false");
  json += "  \"assignment_latency\": " + latency_json(m.assignment_latency) +
          ",\n";
  json += "  \"completion_latency\": " + latency_json(m.completion_latency) +
          "\n";
  json += "}\n";
  return json;
}

}  // namespace svc
}  // namespace ltc
