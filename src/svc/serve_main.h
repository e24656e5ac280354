// The shared main() behind the ltc_serve binary (serve_main.cc, which owns
// every ltc_serve flag), plus the testable service drivers underneath it
// (serve_drivers.cc, flag-free, so other binaries link them without
// inheriting ltc_serve's flags).
//
// Three modes (DESIGN.md §8, §11):
//   * Replay: --events/--synthetic → RunService. The assignment-log text is
//     a pure function of (event log, algorithm, seed, deadline, max_batch,
//     shards) — byte-identical for every --threads value.
//   * Durable replay: the same sources + --state_dir → RunDurableService.
//     Every event goes through the WAL before the engine; restarting the
//     binary over the same state dir recovers (snapshot + WAL suffix) and
//     continues, and the final log is byte-identical to an uninterrupted
//     run (the determinism-under-restart invariant, svc_recovery_test).
//   * Socket server: --listen + --state_dir → a RecoverableService fed by
//     the ltc-wire v1 ingest server (net/server.h). The transport is
//     injected through SocketServeFn so this layer stays independent of
//     net; examples/ltc_serve.cc wires net::SocketServeAdapter() in.
//
// Exit codes: 0 = clean drain (finish frame, end of replay, or a
// SIGINT/SIGTERM graceful drain — open batches flushed, final snapshot
// written, WAL closed); 1 = usage/configuration error; 2 = runtime abort
// (ingest, serve, or finish failure — durable state is left for recovery).

#ifndef LTC_SVC_SERVE_MAIN_H_
#define LTC_SVC_SERVE_MAIN_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "geo/metric.h"
#include "io/event_log.h"
#include "io/wal.h"
#include "svc/recoverable.h"
#include "svc/stream_engine.h"

namespace ltc {
namespace svc {

/// Everything one service run produces.
struct ServeReport {
  /// The "ltc-serve v1" assignment log: header, one "a <time> <worker>
  /// <task>" line per commitment in commit order, and a summary trailer.
  /// Contains no wall-clock measurement, so it is byte-comparable across
  /// runs, thread counts, and (durable modes) crash/restart boundaries.
  std::string assignment_log;
  StreamMetrics metrics;
  /// The sim::RunMetrics view (includes the replay's wall-clock runtime).
  sim::RunMetrics run;
  /// Durable modes only: what Open recovered.
  bool durable = false;
  RecoverableService::RecoveryInfo recovery;
};

/// Parses the `--metric` / `--deadline` flag values that ltc_serve and
/// bench_stream_throughput share. `metric` must be "euclid" or "road"
/// (*road reports which). `deadline` is a number of stream time units
/// (DeadlinePolicy::kFixed) or "adaptive" (DeadlinePolicy::kAdaptive, with
/// `deadline_cap` — which must be positive — as options->batch_deadline).
/// Sets options->deadline_policy and options->batch_deadline; errors are
/// InvalidArgument (both binaries exit 1 on them).
Status ParseMetricAndDeadline(const std::string& metric,
                              const std::string& deadline,
                              double deadline_cap, bool* road,
                              StreamOptions* options);

/// The assignment-log header label of `header`'s distance backend: the
/// metric name with any parameter suffix stripped ("road(nodes=..,edges=..)"
/// -> "road"). Empty — no header segment — on the Euclidean default or
/// without an accuracy model.
std::string MetricLabel(const io::EventLog& header);

/// Renders the "ltc-serve v1" assignment-log text (shared by every mode, so
/// the byte-identity contracts compare like with like). With the default
/// arguments the bytes are exactly the classic format; `metric_label`
/// (non-empty = non-Euclidean backend) appends a " metric <label>" header
/// segment, options.route_workers appends " routes 1" and renders one
/// "m <time> <worker> <x> <y> <task>" line per worker move after the
/// assignment lines.
std::string RenderAssignmentLog(
    const StreamOptions& options,
    const std::vector<StreamAssignment>& assignments,
    const StreamMetrics& metrics,
    const std::vector<WorkerMove>* moves = nullptr,
    const std::string& metric_label = "");

/// Replays `log` in memory (ReplayEventLog) under `options` and renders the
/// assignment log.
StatusOr<ServeReport> RunService(const io::EventLog& log,
                                 const StreamOptions& options);

/// Durability knobs of the durable replay / server modes.
struct DurableConfig {
  std::string state_dir;
  io::WalOptions wal;
  std::int64_t snapshot_every = 0;
  int snapshot_retain = 2;
  /// Forwarded to RecoverableService::Options::metric (non-Euclidean
  /// backends must be re-supplied on every Open; svc/recoverable.h).
  std::shared_ptr<const geo::Metric> metric;
};

/// Replays `log` through a RecoverableService rooted at
/// `durable.state_dir`. On a fresh state dir this ingests every event; on
/// an existing one it recovers first and ingests only the suffix the
/// recovered stream has not seen (log must be a superset re-feed of the
/// same stream). options.world is used as configured — durable runs fix
/// their grid geometry up front (svc/recoverable.h).
StatusOr<ServeReport> RunDurableService(const io::EventLog& log,
                                        const StreamOptions& options,
                                        const DurableConfig& durable);

/// What ServeMain asks of the injected socket transport.
struct SocketServeRequest {
  /// Listen address ("unix:/path" or "tcp:PORT").
  std::string listen;
  /// Ingest queue capacity in events (backpressure high-water mark).
  std::size_t queue_capacity = 4096;
  /// Set by the SIGINT/SIGTERM handler; the transport returns promptly
  /// (graceful drain) once it flips.
  const std::atomic<bool>* stop_flag = nullptr;
};

/// Admission counters the transport reports back (mirrors
/// net::IngestCounters without depending on the net layer).
struct SocketServeResult {
  std::int64_t frames = 0;
  std::int64_t frames_rejected = 0;
  std::int64_t events_admitted = 0;
  std::int64_t events_rejected = 0;
  std::vector<std::int64_t> admitted_per_shard;
  std::vector<std::int64_t> rejected_per_shard;
  std::size_t queue_high_water = 0;
};

/// Blocking socket-serve transport: feed `service` until the stream
/// finishes or the stop flag flips, then return the admission counters.
/// Supplied by the binary (net::SocketServeAdapter()).
using SocketServeFn = std::function<StatusOr<SocketServeResult>(
    RecoverableService* service, const SocketServeRequest& request)>;

/// Renders the service metrics as a JSON object (events/sec, batch and
/// completion counters, assignment/completion latency percentiles).
/// `extra_members`, when non-empty, is raw pre-formatted JSON member text
/// (each line "  \"key\": value,\n") spliced in after the opening brace —
/// the hook the socket mode uses for its ingest counters.
std::string ServeMetricsJson(const ServeReport& report,
                             const std::string& extra_members = "");

/// The ltc_serve entry point: parses flags, selects the mode, runs it, and
/// writes --out / --metrics_json. `socket_serve` supplies the --listen
/// transport; without one, --listen is a configuration error. Returns the
/// process exit code (see file comment).
int ServeMain(int argc, char** argv, SocketServeFn socket_serve = {});

}  // namespace svc
}  // namespace ltc

#endif  // LTC_SVC_SERVE_MAIN_H_
