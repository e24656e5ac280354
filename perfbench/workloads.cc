// The workload table, input generation, the golden replay, and the report
// plumbing shared by every workload.

#include <signal.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>

#include "bench.h"
#include "common/string_util.h"
#include "geo/road_graph.h"
#include "model/accuracy.h"
#include "svc/serve_main.h"
#include "svc/sharded_engine.h"

namespace ltc {
namespace perfbench {

namespace {

/// Sets the arrival counts; tasks arrive over the leading `task_span` of
/// the worker stream.
void SizeStream(gen::StreamConfig* s, std::int64_t tasks,
                std::int64_t workers, double task_span) {
  s->num_tasks = tasks;
  s->num_workers = workers;
  const double duration = static_cast<double>(workers) / s->worker_rate;
  s->task_rate = static_cast<double>(tasks) / (task_span * duration);
}

std::vector<Workload> Table() {
  std::vector<Workload> table;
  {
    Workload w;
    w.name = "hotspot_adaptive_s4";
    w.stream.num_tasks = 10000;
    w.stream.num_workers = 400000;
    // Many small hotspots: their density matches 16 hotspots of stddev 40,
    // but the per-seed layout averages out, so throughput and peak RSS move
    // less from seed to seed.
    w.stream.num_hotspots = 128;
    w.stream.hotspot_fraction = 0.8;
    w.stream.hotspot_stddev = 14.0;
    w.options.algorithm = "LAF";
    w.options.deadline_policy = svc::DeadlinePolicy::kAdaptive;
    w.options.batch_deadline = 0.5;
    w.options.shards = 4;
    // One engine thread: at threads=4 the per-round pool fan-out makes
    // closed-loop throughput swing 2-3x between passes (README.md); the
    // traced run measures that fan-out as svc.fanout_overhead_s.
    w.options.threads = 1;
    // Far below half of capacity on purpose: a round costs about a
    // microsecond, and at higher rates the queues behind the engine's
    // deterministic millisecond stalls (growing its largest buffers) reach
    // the p99 and make it swing (README.md, "Deviations").
    w.reference_eps = 50000.0;
    w.reference_events = 75000;
    // Most of the run goes to the gated closed-loop passes (~0.25 s each).
    w.closed_passes = 27;
    w.latency_limit_ms = 20.0;
    // Top rung 400k * 1.04^59 = 4.0M ev/s, well above the one-thread
    // closed-loop capacity (~1.4-2.4M ev/s).
    w.ladder_min_eps = 400000.0;
    w.ladder_steps = 60;
    w.probe_events = 600000;
    table.push_back(w);
  }
  {
    Workload w;
    w.name = "road_s1";
    // Travel-time reach: dmax 80 on a 48x48 street grid over a 500-unit
    // world keeps every task completing, so max_worker_index can move.
    w.stream.num_tasks = 1500;
    w.stream.num_workers = 12000;
    w.stream.grid_side = 500.0;
    w.stream.dmax = 80.0;
    w.task_span = 0.75;
    w.options.algorithm = "LAF";
    w.options.batch_deadline = 0.0;
    w.options.shards = 1;
    w.options.threads = 1;
    w.road = true;
    // ltc_serve's default engine configuration (deadline 0, K=1, one
    // thread), so the stream is also served durably: recovery_s and the
    // traced io, net and durable svc layers are measured here.
    w.snapshot_every = 4096;
    w.road_config.rows = 48;
    w.road_config.cols = 48;
    w.road_config.world_side = 500.0;
    w.reference_eps = 2500.0;
    w.reference_events = 6000;
    w.closed_passes = 8;
    w.latency_limit_ms = 10.0;
    // Top rung 2000 * 1.04^44 = 11.2k ev/s, above the closed-loop capacity
    // (~6.4-9.0k ev/s).
    w.ladder_min_eps = 2000.0;
    w.ladder_steps = 45;
    w.probe_events = 4000;
    table.push_back(w);
  }
  for (Workload& w : table) {
    SizeStream(&w.stream, w.stream.num_tasks, w.stream.num_workers,
               w.task_span);
    // World fixed up front, as a durable service must (svc/recoverable.h).
    w.options.world = geo::Rect{0.0, 0.0, w.stream.grid_side,
                                w.stream.grid_side};
    w.options.validate = false;  // validation runs on the golden replay
  }
  return table;
}

}  // namespace

StatusOr<Workload> FindWorkload(const std::string& name) {
  std::string names;
  for (const Workload& w : Table()) {
    if (w.name == name) return w;
    names += (names.empty() ? "" : ", ") + w.name;
  }
  return Status::NotFound("unknown workload '" + name + "' (" + names + ")");
}

Dist Summarize(std::vector<double> v) {
  Dist d;
  d.n = static_cast<std::int64_t>(v.size());
  if (v.empty()) return d;
  std::sort(v.begin(), v.end());
  auto rank = [&](double pct) {
    // Nearest rank, clamped to [1, n].
    const double n = static_cast<double>(v.size());
    std::int64_t r = static_cast<std::int64_t>(std::ceil(pct / 100.0 * n -
                                                          1e-9));
    r = std::clamp<std::int64_t>(r, 1, d.n);
    return r;
  };
  d.median = v[static_cast<std::size_t>(rank(50.0) - 1)];
  d.p99 = v[static_cast<std::size_t>(rank(99.0) - 1)];
  d.tail = d.median;
  d.tail_pct = 50.0;
  for (double pct : {99.9, 99.0, 95.0, 90.0, 75.0}) {
    const std::int64_t r = rank(pct);
    if (d.n - r >= 10) {
      d.tail = v[static_cast<std::size_t>(r - 1)];
      d.tail_pct = pct;
      break;
    }
  }
  return d;
}

double Median(std::vector<double> v) { return Summarize(std::move(v)).median; }

double WindowedP99(const std::vector<double>& v) {
  const std::size_t windows =
      std::clamp<std::size_t>(v.size() / 1000, 1, 5);
  std::vector<double> p99s;
  for (std::size_t k = 0; k < windows; ++k) {
    const auto begin = v.begin() + static_cast<std::ptrdiff_t>(
                                       k * v.size() / windows);
    const auto end = v.begin() + static_cast<std::ptrdiff_t>(
                                     (k + 1) * v.size() / windows);
    p99s.push_back(Summarize(std::vector<double>(begin, end)).p99);
  }
  return Median(std::move(p99s));
}

StatusOr<std::vector<double>> Repeat(
    int min_reps, double min_seconds,
    const std::function<StatusOr<double>()>& once) {
  std::vector<double> out;
  const double t0 = Now();
  while (static_cast<int>(out.size()) < min_reps ||
         Now() - t0 < min_seconds) {
    LTC_ASSIGN_OR_RETURN(const double v, once());
    out.push_back(v);
  }
  return out;
}

void Report::Metric(const std::string& name, double value,
                    const std::string& unit) {
  metrics_.push_back({name, value, unit});
}

void Report::Check(const std::string& name, bool ok,
                   const std::string& detail) {
  checks_.push_back({name, ok});
  if (!ok) {
    correct_ = false;
    std::fprintf(stderr, "perfbench: check %s FAILED %s\n", name.c_str(),
                 detail.c_str());
  }
}

void Report::Note(const std::string& key, const std::string& value) {
  notes_.push_back({key, value});
}

void Report::Count(std::int64_t attempted, std::int64_t failed) {
  attempted_ += attempted;
  failed_ += failed;
}

std::string Report::Json() const {
  std::string out = "{\"correct\": ";
  out += correct_ ? "true" : "false";
  out += StrFormat(", \"attempted\": %lld, \"failed\": %lld",
                   static_cast<long long>(attempted_),
                   static_cast<long long>(correct_ ? failed_ : attempted_));
  out += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics_.size(); ++i) {
    out += StrFormat("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                     i == 0 ? "" : ", ", metrics_[i].name.c_str(),
                     metrics_[i].value, metrics_[i].unit.c_str());
  }
  out += "}, \"checks\": {";
  for (std::size_t i = 0; i < checks_.size(); ++i) {
    out += StrFormat("%s\"%s\": %s", i == 0 ? "" : ", ",
                     checks_[i].first.c_str(),
                     checks_[i].second ? "true" : "false");
  }
  out += "}, \"notes\": {";
  for (std::size_t i = 0; i < notes_.size(); ++i) {
    out += StrFormat("%s\"%s\": \"%s\"", i == 0 ? "" : ", ",
                     notes_[i].first.c_str(), notes_[i].second.c_str());
  }
  out += "}}";
  return out;
}

StatusOr<std::unique_ptr<Child>> Child::Start(
    const std::function<StatusOr<std::string>()>& fn) {
  int fds[2];
  if (::pipe(fds) != 0) return Status::IOError("pipe failed");
  const pid_t pid = ::fork();
  if (pid < 0) {
    ::close(fds[0]);
    ::close(fds[1]);
    return Status::Internal("fork failed");
  }
  if (pid == 0) {
    ::close(fds[0]);
    StatusOr<std::string> result = fn();
    const std::string msg = result.ok() ? "K" + result.value()
                                        : "E" + result.status().ToString();
    std::size_t off = 0;
    while (off < msg.size()) {
      const ssize_t n = ::write(fds[1], msg.data() + off, msg.size() - off);
      if (n <= 0) break;
      off += static_cast<std::size_t>(n);
    }
    ::_exit(result.ok() ? 0 : 3);
  }
  ::close(fds[1]);
  return std::unique_ptr<Child>(new Child(pid, fds[0]));
}

Child::~Child() {
  if (fd_ >= 0) ::close(fd_);
  if (pid_ > 0) {
    ::kill(pid_, SIGKILL);
    int wstatus = 0;
    ::waitpid(pid_, &wstatus, 0);
  }
}

StatusOr<std::string> Child::Wait() {
  std::string msg;
  char buf[4096];
  while (true) {
    const ssize_t n = ::read(fd_, buf, sizeof(buf));
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;
    msg.append(buf, static_cast<std::size_t>(n));
  }
  ::close(fd_);
  fd_ = -1;
  int wstatus = 0;
  const pid_t waited = ::waitpid(pid_, &wstatus, 0);
  pid_ = -1;
  if (waited < 0) return Status::Internal("waitpid failed");
  if (!msg.empty() && msg[0] == 'E') return Status::Internal(msg.substr(1));
  if (msg.empty() || msg[0] != 'K' || !WIFEXITED(wstatus) ||
      WEXITSTATUS(wstatus) != 0) {
    return Status::Internal(
        StrFormat("child exited abnormally (wstatus %d)", wstatus));
  }
  return msg.substr(1);
}

namespace {

bool WriteAll(int fd, const void* data, std::size_t size) {
  const char* p = static_cast<const char*>(data);
  while (size > 0) {
    const ssize_t n = ::write(fd, p, size);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    p += n;
    size -= static_cast<std::size_t>(n);
  }
  return true;
}

bool ReadAll(int fd, void* data, std::size_t size) {
  char* p = static_cast<char*>(data);
  while (size > 0) {
    const ssize_t n = ::read(fd, p, size);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    p += n;
    size -= static_cast<std::size_t>(n);
  }
  return true;
}

}  // namespace

StatusOr<std::unique_ptr<PassForker>> PassForker::Start(
    const std::function<StatusOr<std::string>()>& pass) {
  int request[2], result[2];
  if (::pipe(request) != 0) return Status::IOError("pipe failed");
  if (::pipe(result) != 0) {
    ::close(request[0]);
    ::close(request[1]);
    return Status::IOError("pipe failed");
  }
  const pid_t pid = ::fork();
  if (pid < 0) {
    for (int fd : {request[0], request[1], result[0], result[1]}) ::close(fd);
    return Status::Internal("fork failed");
  }
  if (pid == 0) {
    ::close(request[1]);
    ::close(result[0]);
    // One byte per pass; EOF (the benchmark process is done) ends the loop.
    char byte = 0;
    while (ReadAll(request[0], &byte, 1)) {
      std::string msg;
      auto child = Child::Start(pass);
      if (!child.ok()) {
        msg = "E" + child.status().ToString();
      } else {
        StatusOr<std::string> r = child.value()->Wait();
        msg = r.ok() ? "K" + r.value() : "E" + r.status().ToString();
      }
      const std::uint64_t size = msg.size();
      if (!WriteAll(result[1], &size, sizeof(size)) ||
          !WriteAll(result[1], msg.data(), msg.size())) {
        break;
      }
    }
    ::_exit(0);
  }
  ::close(request[0]);
  ::close(result[1]);
  return std::unique_ptr<PassForker>(
      new PassForker(pid, request[1], result[0]));
}

StatusOr<std::string> PassForker::Run() {
  const char byte = 1;
  std::uint64_t size = 0;
  if (!WriteAll(request_fd_, &byte, 1) ||
      !ReadAll(result_fd_, &size, sizeof(size))) {
    return Status::Internal("pass forker died");
  }
  std::string msg(size, '\0');
  if (size == 0 || !ReadAll(result_fd_, msg.data(), size)) {
    return Status::Internal("pass forker: short report");
  }
  if (msg[0] != 'K') return Status::Internal(msg.substr(1));
  return msg.substr(1);
}

PassForker::~PassForker() {
  // EOF on its request pipe ends the forker's loop; it has no pass running
  // here, since Run waits for each pass.
  ::close(request_fd_);
  ::close(result_fd_);
  int wstatus = 0;
  ::waitpid(pid_, &wstatus, 0);
}

StatusOr<LadderResult> SearchLadder(
    const Workload& w, const std::function<StatusOr<Probe>(double)>& probe) {
  LadderResult out;
  // Invariant: rung lo passes (or lo == -1), rung hi fails (or hi == steps).
  int lo = -1;
  int hi = w.ladder_steps;
  while (hi - lo > 1) {
    const int mid = lo + (hi - lo) / 2;
    const double rate = w.ladder_min_eps * std::pow(kLadderStep, mid);
    LTC_ASSIGN_OR_RETURN(const Probe p, probe(rate));
    ++out.probes;
    out.output_ok = out.output_ok && p.output_ok;
    out.offered += p.offered;
    out.failed += p.failed;
    out.trail += StrFormat("%s%.0f:%s(%s)", out.trail.empty() ? "" : " ",
                           rate, p.sustainable ? "ok" : "over",
                           p.detail.c_str());
    if (p.sustainable) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  // Below the first rung the workload has no sustainable rate on its
  // ladder; report the rung under it so the metric stays a rate.
  out.eps = w.ladder_min_eps * std::pow(kLadderStep, lo);
  return out;
}

void ReportQuality(const Input& in, Report* report) {
  const svc::StreamMetrics& m = in.golden_metrics;
  report->Metric("max_worker_index", static_cast<double>(in.golden_max_worker),
                 "count");
  report->Metric("completed_ratio",
                 static_cast<double>(m.tasks_completed) /
                     static_cast<double>(m.task_events),
                 "ratio");
  report->Metric("completion_latency_p99_st", m.completion_latency.p99, "st");
}

std::int64_t MaxRssKb() {
  struct rusage usage;
  if (::getrusage(RUSAGE_SELF, &usage) != 0) return 0;
  return static_cast<std::int64_t>(usage.ru_maxrss);
}

std::string RenderLog(const Workload& w, const Input& in,
                      const std::vector<svc::StreamAssignment>& assignments,
                      const svc::StreamMetrics& metrics) {
  return svc::RenderAssignmentLog(
      w.options, assignments, metrics, nullptr,
      in.metric != nullptr ? in.metric->Name() : "");
}

std::string Served(const RunConfig& run, std::string log) {
  if (run.corrupt_served_log && !log.empty()) {
    // Flip the first digit of the last assignment line.
    const std::size_t pos = log.rfind("\na ");
    const std::size_t at = pos == std::string::npos ? 0 : pos + 3;
    log[at] = log[at] == '9' ? '8' : '9';
  }
  return log;
}

StatusOr<Input> MakeInput(const Workload& w, const RunConfig& run) {
  Input in;
  gen::StreamConfig cfg = w.stream;
  cfg.seed = run.seed;
  cfg.num_tasks = std::max<std::int64_t>(
      10, std::llround(static_cast<double>(cfg.num_tasks) * run.size));
  cfg.num_workers = std::max<std::int64_t>(
      200, std::llround(static_cast<double>(cfg.num_workers) * run.size));
  SizeStream(&cfg, cfg.num_tasks, cfg.num_workers, w.task_span);
  LTC_ASSIGN_OR_RETURN(in.log, gen::GenerateStreamEvents(cfg));

  if (w.road) {
    // The street grid is infrastructure: fixed across seeds. It is written
    // as an ltc-road file that setup loads, like ltc_serve --road_graph.
    LTC_ASSIGN_OR_RETURN(const geo::RoadGraph graph,
                         gen::GenerateGridRoadGraph(w.road_config));
    in.road_path = run.work_dir + "/road.ltc-road";
    LTC_RETURN_IF_ERROR(graph.Save(in.road_path));
    LTC_ASSIGN_OR_RETURN(geo::RoadGraph loaded,
                         geo::RoadGraph::Load(in.road_path));
    in.metric = std::make_shared<geo::RoadMetric>(
        std::make_shared<geo::RoadGraph>(std::move(loaded)));
    LTC_ASSIGN_OR_RETURN(in.log.accuracy,
                         model::RebindMetric(*in.log.accuracy, in.metric));
  }
  in.header = in.log;
  in.header.events.clear();

  // Golden replay: one thread, arrangement validation on (outside any
  // timed window).
  svc::StreamOptions golden = w.options;
  golden.threads = 1;
  golden.validate = true;
  LTC_ASSIGN_OR_RETURN(auto engine,
                       svc::ShardedStreamEngine::Create(in.header, golden));
  in.golden_count_after.reserve(in.log.events.size());
  for (const io::Event& e : in.log.events) {
    LTC_RETURN_IF_ERROR(engine->OnEvent(e));
    in.golden_count_after.push_back(
        static_cast<std::int32_t>(engine->assignments().size()));
  }
  LTC_RETURN_IF_ERROR(engine->SerializeTo(&in.end_state));
  LTC_ASSIGN_OR_RETURN(in.golden_metrics, engine->Finish());
  if (!in.golden_metrics.validated) {
    return Status::Internal("golden replay skipped arrangement validation");
  }
  in.golden_assignments = engine->assignments();
  in.golden_max_worker = engine->max_assigned_worker();
  in.golden_log = RenderLog(w, in, in.golden_assignments, in.golden_metrics);
  return in;
}

}  // namespace perfbench
}  // namespace ltc
