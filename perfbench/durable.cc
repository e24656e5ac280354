// The durable path of a workload that runs durably (road_s1): a crash
// recovery phase reopens the state an in-process crash leaves (recovery_s),
// and the traced run times the durable svc, io and net layers, ending with
// a closed-loop socket pass in which a forked child runs RecoverableService
// behind net::IngestServer on a Unix socket (ltc_serve's socket mode) and
// the benchmark process is the one net::IngestClient.

#include <malloc.h>
#include <sched.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>

#include "bench.h"
#include "common/string_util.h"
#include "layers.h"
#include "net/client.h"
#include "net/server.h"
#include "svc/recoverable.h"
#include "svc/sharded_engine.h"
#include "svc/snapshot.h"

namespace ltc {
namespace perfbench {

namespace {

/// Events per kEvents frame the client sends.
constexpr std::size_t kFrameEvents = 32;

/// ltc_serve's WAL defaults (group commit 64 + fsync) with the workload's
/// snapshot cadence.
svc::RecoverableService::Options ServiceOptions(const Workload& w,
                                                const Input& in,
                                                const std::string& dir) {
  svc::RecoverableService::Options o;
  o.state_dir = dir;
  o.stream = w.options;
  o.snapshot_every = w.snapshot_every;
  o.metric = in.metric;  // re-supplied on every Open (svc/recoverable.h)
  return o;
}

/// A fresh, empty state directory under the run's work dir.
StatusOr<std::string> FreshDir(const RunConfig& run, const std::string& tag) {
  static int counter = 0;
  const std::string dir = StrFormat("%s/%s%d", run.work_dir.c_str(),
                                    tag.c_str(), counter++);
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
  std::filesystem::create_directories(dir, ec);
  if (ec) return Status::IOError("create " + dir + ": " + ec.message());
  return dir;
}

/// Forks the server: RecoverableService::Open, IngestServer::Serve until
/// the client's finish frame, then Finish. Reports the rendered assignment
/// log.
StatusOr<std::unique_ptr<Child>> StartServer(const Workload& w,
                                             const Input& in,
                                             const std::string& dir) {
  ::malloc_trim(0);  // see StartClosedLoops in inproc.cc
  std::fflush(nullptr);
  return Child::Start([&w, &in, dir]() -> StatusOr<std::string> {
    LTC_ASSIGN_OR_RETURN(auto service,
                         svc::RecoverableService::Open(
                             in.header, ServiceOptions(w, in, dir)));
    net::ServerOptions nopts;  // ltc_serve's ingest queue of 4096 events
    nopts.listen = "unix:" + dir + "/sock";
    net::IngestServer server(service.get(), nopts);
    LTC_RETURN_IF_ERROR(server.Serve());
    LTC_ASSIGN_OR_RETURN(const svc::StreamMetrics m, service->Finish());
    return RenderLog(w, in, service->assignments(), m);
  });
}

/// Connects as soon as the server listens: immediate retries with a
/// yield, no sleep-polling.
StatusOr<std::unique_ptr<net::IngestClient>> Connect(const std::string& dir) {
  const std::string address = "unix:" + dir + "/sock";
  const double deadline = Now() + 30.0;
  while (true) {
    auto client = net::IngestClient::Connect(address);
    if (client.ok()) return client;
    if (Now() > deadline) {
      return client.status().WithContext("server did not come up");
    }
    ::sched_yield();
  }
}

std::vector<std::vector<io::Event>> Frames(const Input& in) {
  std::vector<std::vector<io::Event>> frames;
  const auto& ev = in.log.events;
  for (std::size_t b = 0; b < ev.size(); b += kFrameEvents) {
    frames.emplace_back(ev.begin() + b,
                        ev.begin() + std::min(ev.size(), b + kFrameEvents));
  }
  return frames;
}

/// The log an uninterrupted in-process service renders for the first `n`
/// events.
StatusOr<std::string> ReplayPrefix(const Workload& w, const Input& in,
                                   std::size_t n) {
  if (n == in.log.events.size()) return in.golden_log;
  LTC_ASSIGN_OR_RETURN(auto engine,
                       svc::ShardedStreamEngine::Create(in.header, w.options));
  for (std::size_t i = 0; i < n; ++i) {
    LTC_RETURN_IF_ERROR(engine->OnEvent(in.log.events[i]));
  }
  LTC_ASSIGN_OR_RETURN(const svc::StreamMetrics m, engine->Finish());
  return RenderLog(w, in, engine->assignments(), m);
}

/// The kStats queue high water ("queue D/C high_water H ...").
long HighWater(const net::Ack& stats) {
  long depth = 0, cap = 0, high_water = 0;
  std::sscanf(stats.message.c_str(), "queue %ld/%ld high_water %ld", &depth,
              &cap, &high_water);
  return high_water;
}

/// The traced closed-loop socket pass over the whole stream.
struct WirePass {
  double send_wait_s = 0.0;  // client time inside SendEvents
  std::int64_t frames = 0;
  std::int64_t frames_retried = 0;
  long high_water = 0;
  std::int64_t offered = 0;
  std::int64_t failed = 0;
  bool zero_loss = false;
  bool log_ok = false;
};
StatusOr<WirePass> RunWirePass(const Workload& w, const RunConfig& run,
                               const Input& in) {
  const std::size_t n = in.log.events.size();
  const auto frames = Frames(in);
  LTC_ASSIGN_OR_RETURN(const std::string dir, FreshDir(run, "wire"));
  LTC_ASSIGN_OR_RETURN(auto child, StartServer(w, in, dir));
  WirePass pass;
  {
    LTC_ASSIGN_OR_RETURN(auto client, Connect(dir));
    for (std::size_t j = 0; j < frames.size(); ++j) {
      const double start = Now();
      const Status st = client->SendEvents(frames[j]);
      pass.send_wait_s += Now() - start;
      pass.offered += static_cast<std::int64_t>(frames[j].size());
      if (!st.ok()) {
        pass.failed += static_cast<std::int64_t>(frames[j].size());
        std::fprintf(stderr, "perfbench: frame %zu: %s\n", j,
                     st.ToString().c_str());
        break;
      }
    }
    LTC_ASSIGN_OR_RETURN(const net::Ack stats, client->Stats());
    pass.high_water = HighWater(stats);
    LTC_ASSIGN_OR_RETURN(const net::Ack fin, client->Finish());
    pass.frames = static_cast<std::int64_t>(frames.size());
    pass.frames_retried = client->frames_retried();
    pass.zero_loss = fin.admitted == static_cast<std::uint64_t>(n) &&
                     pass.failed == 0;
    if (!pass.zero_loss) pass.failed = std::max<std::int64_t>(
        pass.failed, static_cast<std::int64_t>(n) -
                         static_cast<std::int64_t>(fin.admitted));
  }
  LTC_ASSIGN_OR_RETURN(const std::string served, child->Wait());
  pass.log_ok = Served(run, served) == in.golden_log;
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
  return pass;
}

/// The crash state: an in-process RecoverableService ingests the whole
/// stream and is destroyed without Finish (svc/recoverable.h's crash
/// model). Per-Ingest timings feed the traced run.
struct CrashState {
  std::string dir;
  double ingest_busy_s = 0.0;  // Ingest calls that took no checkpoint
  double checkpoint_s = 0.0;   // Ingest calls that took one
  std::int64_t checkpoints = 0;
};
StatusOr<CrashState> BuildCrashState(const Workload& w, const RunConfig& run,
                                     const Input& in) {
  CrashState cs;
  LTC_ASSIGN_OR_RETURN(cs.dir, FreshDir(run, "crash"));
  LTC_ASSIGN_OR_RETURN(auto service,
                       svc::RecoverableService::Open(
                           in.header, ServiceOptions(w, in, cs.dir)));
  for (const io::Event& e : in.log.events) {
    const double t0 = Now();
    LTC_RETURN_IF_ERROR(service->Ingest(e));
    const double dt = Now() - t0;
    if (w.snapshot_every > 0 &&
        service->events_applied() % w.snapshot_every == 0) {
      cs.checkpoint_s += dt;
      ++cs.checkpoints;
    } else {
      cs.ingest_busy_s += dt;
    }
  }
  return cs;  // the service dies here without Finish: a crash
}

}  // namespace

StatusOr<std::vector<double>> DurableLayers(const Workload& w,
                                            const RunConfig& run,
                                            const Input& in, bool traced,
                                            int reps, Report* report) {
  LTC_ASSIGN_OR_RETURN(const CrashState crash, BuildCrashState(w, run, in));
  svc::RecoverableService::RecoveryInfo info;
  LTC_ASSIGN_OR_RETURN(
      const std::vector<double> recovery_s,
      Repeat(reps, 0.0, [&]() -> StatusOr<double> {
        const double t0 = Now();
        LTC_ASSIGN_OR_RETURN(auto service,
                             svc::RecoverableService::Open(
                                 in.header, ServiceOptions(w, in, crash.dir)));
        const double dt = Now() - t0;
        info = service->recovery();
        // Destroyed without Finish again: the state on disk is unchanged,
        // so every Open repeats the same work.
        return dt;
      }));
  report->Check("recovery_replays_suffix",
                info.recovered && info.snapshot_events > 0 &&
                    info.replayed > 0);
  // The recovered service finishes to the log of an uninterrupted replay
  // of the WAL's durable prefix.
  double final_checkpoint_s = 0.0;
  {
    LTC_ASSIGN_OR_RETURN(auto service,
                         svc::RecoverableService::Open(
                             in.header, ServiceOptions(w, in, crash.dir)));
    const double t0 = Now();
    LTC_ASSIGN_OR_RETURN(const svc::StreamMetrics m, service->Finish());
    final_checkpoint_s = Now() - t0;
    LTC_ASSIGN_OR_RETURN(
        const std::string want,
        ReplayPrefix(w, in, static_cast<std::size_t>(info.wal_records)));
    report->Check("recovered_log_identical",
                  RenderLog(w, in, service->assignments(), m) == want);
  }
  report->Note("recovery_s",
               StrFormat("RecoverableService::Open after a crash at the end "
                         "of the stream: snapshot at %lld events + %lld "
                         "replayed of %lld durable, median of %zu",
                         static_cast<long long>(info.snapshot_events),
                         static_cast<long long>(info.replayed),
                         static_cast<long long>(info.wal_records),
                         recovery_s.size()));

  if (!traced) return recovery_s;

  report->Metric("svc.ingest_busy_s", crash.ingest_busy_s, "s");
  report->Metric("svc.checkpoint_s", crash.checkpoint_s + final_checkpoint_s,
                 "s");
  report->Metric("svc.checkpoints",
                 static_cast<double>(crash.checkpoints + 1), "count");
  {
    LTC_ASSIGN_OR_RETURN(const svc::SnapshotStore store,
                         svc::SnapshotStore::Open(crash.dir + "/snapshots"));
    const std::vector<std::string> files = store.List();
    std::error_code ec;
    const std::uintmax_t bytes =
        files.empty() ? 0
                      : std::filesystem::file_size(
                            store.dir() + "/" + files.back(), ec);
    if (ec) return Status::IOError("snapshot size: " + ec.message());
    report->Metric("svc.snapshot_bytes", static_cast<double>(bytes),
                   "bytes");
  }
  // The restore step alone, through the same public calls Open makes:
  // load the newest valid snapshot and rebuild the engine from it.
  {
    const double t0 = Now();
    LTC_ASSIGN_OR_RETURN(const svc::SnapshotStore store,
                         svc::SnapshotStore::Open(crash.dir + "/snapshots"));
    LTC_ASSIGN_OR_RETURN(const svc::SnapshotStore::Loaded loaded,
                         store.LoadLatest());
    LTC_ASSIGN_OR_RETURN(auto engine,
                         svc::ShardedStreamEngine::Restore(
                             in.header, w.options, loaded.engine_state));
    report->Metric("svc.restore_s", Now() - t0, "s");
  }
  report->Metric("svc.recover_replayed", static_cast<double>(info.replayed),
                 "count");

  LTC_ASSIGN_OR_RETURN(const std::string wal_dir, FreshDir(run, "wal"));
  LTC_ASSIGN_OR_RETURN(const WalLayer wal,
                       MeasureWal(in.log, io::WalOptions{}, wal_dir + "/wal.events"));
  report->Check("wal_round_trip", wal.round_trip_ok);
  report->Metric("io.wal_append_s", wal.append_s, "s");
  report->Metric("io.wal_flush_s", wal.flush_s, "s");
  report->Metric("io.wal_flushes", static_cast<double>(wal.flushes), "count");
  report->Metric("io.wal_flush_p99_ms", wal.flush_p99_ms, "ms");
  report->Metric("io.wal_bytes", static_cast<double>(wal.bytes), "bytes");
  report->Metric("io.event_parse_s", wal.parse_s, "s");

  LTC_ASSIGN_OR_RETURN(const CodecLayer codec,
                       MeasureCodec(in.log.events, kFrameEvents));
  report->Check("codec_round_trip", codec.round_trip_ok);
  report->Metric("net.encode_s", codec.encode_s, "s");
  report->Metric("net.decode_s", codec.decode_s, "s");

  // Traced closed-loop wire pass: client-side send waits and retries.
  LTC_ASSIGN_OR_RETURN(const WirePass pass, RunWirePass(w, run, in));
  report->Check("traced_zero_loss", pass.zero_loss);
  report->Check("traced_log_identical", pass.log_ok);
  report->Count(pass.offered, pass.failed);
  report->Metric("net.send_wait_s", pass.send_wait_s, "s");
  report->Metric("net.frames", static_cast<double>(pass.frames), "count");
  report->Metric("net.frames_retried",
                 static_cast<double>(pass.frames_retried), "count");
  report->Metric("net.retry_ratio",
                 static_cast<double>(pass.frames_retried) /
                     static_cast<double>(pass.frames +
                                         pass.frames_retried),
                 "ratio");
  report->Metric("net.queue_depth_max",
                 static_cast<double>(pass.high_water), "count");
  return recovery_s;
}

}  // namespace perfbench
}  // namespace ltc
