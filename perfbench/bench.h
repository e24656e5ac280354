// Shared pieces of the serving benchmark (README.md): the result report,
// sample statistics, the workload table, and the generated inputs.
//
// Every timing here is taken by the benchmark around calls into the
// program's public API; nothing inside src/ is instrumented.

#ifndef LTC_PERFBENCH_BENCH_H_
#define LTC_PERFBENCH_BENCH_H_

#include <sys/types.h>

#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "gen/road.h"
#include "gen/stream.h"
#include "geo/metric.h"
#include "io/event_log.h"
#include "svc/stream_engine.h"

namespace ltc {
namespace perfbench {

/// Monotonic seconds (steady_clock), the benchmark's only clock.
inline double Now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// A timing distribution: the median and the highest of {99.9, 99, 95, 90,
/// 75, 50} that leaves at least ten samples beyond it (choosing-metrics
/// rule), with the sample count.
struct Dist {
  std::int64_t n = 0;
  double median = 0.0;
  double tail = 0.0;
  double tail_pct = 50.0;
  double p99 = 0.0;  // nearest-rank p99, whatever the sample count
};
Dist Summarize(std::vector<double> samples);
double Median(std::vector<double> samples);
/// The p99 reported as latency_p99_ms: the median of the nearest-rank p99s
/// of up to five consecutive windows of at least 1000 samples each (one
/// window below 2000 samples), so one burst moves one window, not the
/// metric.
double WindowedP99(const std::vector<double>& samples);
/// Runs `once` at least `min_reps` times and until `min_seconds` of wall
/// time have passed; returns each call's reported value.
StatusOr<std::vector<double>> Repeat(
    int min_reps, double min_seconds,
    const std::function<StatusOr<double>()>& once);

/// Everything one benchmark invocation prints. Metrics keep insertion order.
class Report {
 public:
  void Metric(const std::string& name, double value, const std::string& unit);
  /// Records a correctness check; a failed one marks the run incorrect and
  /// every offered operation failed (its outputs cannot be trusted).
  void Check(const std::string& name, bool ok, const std::string& detail = "");
  /// Free-form per-metric detail (sample counts, tails) for the info line.
  void Note(const std::string& key, const std::string& value);
  /// Offered operations and failed ones (failed_ratio = failed / attempted).
  void Count(std::int64_t attempted, std::int64_t failed);

  bool correct() const { return correct_; }
  /// One JSON object: metrics, checks, notes, counts.
  std::string Json() const;

 private:
  struct Entry {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Entry> metrics_;
  std::vector<std::pair<std::string, std::string>> notes_;
  std::vector<std::pair<std::string, bool>> checks_;
  bool correct_ = true;
  std::int64_t attempted_ = 0;
  std::int64_t failed_ = 0;
};

/// One row of the workload table (workloads.cc).
struct Workload {
  std::string name;
  gen::StreamConfig stream;  // seed is set per run
  /// Tasks arrive over this leading share of the worker stream; the tail
  /// finishes them, so max_worker_index can move either way.
  double task_span = 0.8;
  svc::StreamOptions options;
  bool road = false;
  gen::RoadConfig road_config;
  /// > 0: the workload runs durably (ltc_serve's WAL and queue defaults,
  /// a snapshot every this many events). recovery_s then times
  /// RecoverableService::Open, and the traced run measures the durable
  /// layers (DurableLayers).
  std::int64_t snapshot_every = 0;
  // Open loop: the fixed reference rate for latency_p50/p99_ms and the
  // events it offers (at --seconds=kPublishedSeconds), the p99 limit, and
  // the sustainable-rate ladder (kLadderStep apart). Every ladder probe
  // offers the same leading events, so rungs differ only in rate.
  double reference_eps = 0.0;
  std::int64_t reference_events = 0;
  /// Closed-loop passes per run; events_per_sec is their median.
  int closed_passes = 5;
  double latency_limit_ms = 0.0;
  double ladder_min_eps = 0.0;
  int ladder_steps = 0;
  std::int64_t probe_events = 0;
};

/// The sustainable-rate ladder's ratio between rungs: 4 %, finer than any
/// bound BENCHMARK.json may set.
inline constexpr double kLadderStep = 1.04;

/// Looks a workload up by name (NotFound lists the valid names).
StatusOr<Workload> FindWorkload(const std::string& name);

/// BENCHMARK.json's run_seconds: open-loop sizes scale with --seconds
/// relative to it.
inline constexpr double kPublishedSeconds = 15.0;

/// Run-wide settings from the command line.
struct RunConfig {
  std::uint64_t seed = 1;
  double seconds = kPublishedSeconds;  // measurement budget of one run
  bool trace = false;
  /// Stream-size multiplier (1 = the published workload; the benchmark's
  /// own tests shrink it).
  double size = 1.0;
  /// Scratch directory for sockets, WALs and road files.
  std::string work_dir = ".";
  /// Test hook: corrupt every served log before it is checked, so the
  /// benchmark's own tests can show the correctness gate trips.
  bool corrupt_served_log = false;
};

/// A workload's generated input plus its golden (uninstrumented,
/// threads=1) replay.
struct Input {
  io::EventLog log;       // header + events, accuracy already bound
  io::EventLog header;    // log without events
  std::string road_path;  // road_s1: the ltc-road file setup loads
  std::shared_ptr<const geo::Metric> metric;  // road_s1 only
  /// Golden replay: rendered log, assignments, and the assignment count
  /// after each event (prefix checks of partial runs).
  std::string golden_log;
  std::vector<svc::StreamAssignment> golden_assignments;
  std::vector<std::int32_t> golden_count_after;
  svc::StreamMetrics golden_metrics;
  model::WorkerIndex golden_max_worker = 0;
  /// ShardedStreamEngine::SerializeTo of the golden engine after the last
  /// event, before Finish: the state an in-process crash leaves.
  std::string end_state;
};

/// Generates the input from the seed, writes the road file (road_s1), and
/// runs the golden replay. Untimed.
StatusOr<Input> MakeInput(const Workload& w, const RunConfig& run);

/// Renders an engine's assignment log the way ltc_serve does.
std::string RenderLog(const Workload& w, const Input& in,
                      const std::vector<svc::StreamAssignment>& assignments,
                      const svc::StreamMetrics& metrics);

/// A log as a timed run served it: `log`, or a corrupted copy under the
/// corrupt_served_log test hook.
std::string Served(const RunConfig& run, std::string log);

/// The paper's quality metrics (max_worker_index, completed_ratio,
/// completion_latency_p99_st) of the golden replay. Exact per seed; every
/// timed run's log is checked byte-identical to it.
void ReportQuality(const Input& in, Report* report);

/// Traced ShardedStreamEngine passes under the workload's options: the
/// per-layer svc, fcst and geo metrics (inproc.cc).
Status TraceEngine(const Workload& w, const RunConfig& run, const Input& in,
                   Report* report);

/// The durable path's crash recovery (durable.cc): an in-process
/// RecoverableService ingests the stream and crashes; returns `reps` timed
/// RecoverableService::Open calls over that state. `traced` adds the
/// durable per-layer metrics (svc ingest/checkpoint/restore, io WAL, net
/// codec and a traced socket pass).
StatusOr<std::vector<double>> DurableLayers(const Workload& w,
                                            const RunConfig& run,
                                            const Input& in, bool traced,
                                            int reps, Report* report);

/// Runs one workload (inproc.cc) into `report`.
Status RunInProcess(const Workload& w, const RunConfig& run, const Input& in,
                    Report* report);

/// \brief A forked child process that reports one string back through a
/// pipe. The destructor kills and reaps a child nobody waited for, so no
/// process outlives the benchmark.
class Child {
 public:
  /// Forks; the child runs `fn`, reports its result, and _exits. Flush
  /// stdio before calling (the child never flushes inherited buffers).
  static StatusOr<std::unique_ptr<Child>> Start(
      const std::function<StatusOr<std::string>()>& fn);
  ~Child();
  Child(const Child&) = delete;
  Child& operator=(const Child&) = delete;

  /// Waits for the child and returns its report (its error on failure).
  StatusOr<std::string> Wait();

 private:
  Child(pid_t pid, int fd) : pid_(pid), fd_(fd) {}
  pid_t pid_ = -1;
  int fd_ = -1;
};

/// \brief A process forked once, before the run's phases allocate, that
/// runs `pass` in a fresh child of its own on every Run. Each pass then
/// starts from the same heap whatever the benchmark process did in between;
/// a child forked from the benchmark process itself would reuse the free
/// memory its earlier phases left resident, unseen by ru_maxrss, so its
/// peak RSS would depend on which phase ran last. The destructor stops and
/// reaps the process.
class PassForker {
 public:
  /// Flush stdio and trim the heap before calling.
  static StatusOr<std::unique_ptr<PassForker>> Start(
      const std::function<StatusOr<std::string>()>& pass);
  ~PassForker();
  PassForker(const PassForker&) = delete;
  PassForker& operator=(const PassForker&) = delete;

  /// Runs one pass and returns its report (its error on failure).
  StatusOr<std::string> Run();

 private:
  PassForker(pid_t pid, int request_fd, int result_fd)
      : pid_(pid), request_fd_(request_fd), result_fd_(result_fd) {}
  pid_t pid_ = -1;
  int request_fd_ = -1;
  int result_fd_ = -1;
};

/// One probe of the sustainable-rate search.
struct Probe {
  bool sustainable = false;
  std::string detail;  // "p99=... backlog=..." for the info line
  bool output_ok = true;  // the probe's own correctness checks
  std::int64_t offered = 0;
  std::int64_t failed = 0;
};
/// The sustainable-rate search: binary search over the workload's fixed
/// geometric ladder for the highest rate whose probe is sustainable. The
/// top rung must sit above the workload's closed-loop capacity.
struct LadderResult {
  double eps = 0.0;
  int probes = 0;
  bool output_ok = true;
  std::int64_t offered = 0;
  std::int64_t failed = 0;
  std::string trail;  // "rate:pass/fail ..." for the info line
};
StatusOr<LadderResult> SearchLadder(
    const Workload& w, const std::function<StatusOr<Probe>(double)>& probe);

/// This process's ru_maxrss in KiB. In a freshly forked child it starts at
/// the RSS inherited from the parent, so end minus start is the peak the
/// child's own work added.
std::int64_t MaxRssKb();

}  // namespace perfbench
}  // namespace ltc

#endif  // LTC_PERFBENCH_BENCH_H_
