// End-to-end socket ingest benchmark: a forked child runs the durable
// server (RecoverableService + net::IngestServer over a Unix-domain
// socket); the parent connects an IngestClient and streams a synthetic
// arrival log in fixed-size frames at wire level, so the measured
// events/sec covers framing, admission, the bounded queue, the WAL
// (fsync'd group commits), the engine, and the final drain.
//
//   ./build/bench/bench_serve_e2e --json=serve_e2e.json
//
// Every case also asserts the zero-loss contract the server advertises
// (net/server.h): the finish ack's admitted total equals the events sent —
// through backpressure retries in the small-queue case — and the child's
// assignment log is byte-identical to an in-process replay of the same
// stream under the same options. The checked-in baseline is BENCH_PR7.json;
// tools/bench_compare.py gates CI's recovery job against its
// events_per_sec with a wide floor tolerance (wall-clock, machine-bound).

#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <vector>

#include "common/flags.h"
#include "common/string_util.h"
#include "common/timer.h"
#include "gen/stream.h"
#include "io/workload_io.h"
#include "net/client.h"
#include "net/server.h"
#include "svc/recoverable.h"
#include "svc/serve_main.h"

namespace ltc {
namespace {

Flag<std::int64_t> FLAG_tasks("tasks", 1000, "task arrivals per case");
Flag<std::int64_t> FLAG_workers("workers", 49000, "worker arrivals per case");
Flag<double> FLAG_deadline("deadline", 0.25, "batching deadline");
Flag<std::int64_t> FLAG_seed("seed", 1, "stream RNG seed");
Flag<std::string> FLAG_json("json", "",
                            "write the machine-readable JSON summary here");
Flag<std::string> FLAG_state_root(
    "state_root", "/tmp",
    "directory for per-case sockets and durable state (removed after)");

struct E2eCase {
  std::string label;
  int shards = 1;
  std::size_t queue_capacity = 65536;
  std::size_t frame_events = 512;
};

struct E2eResult {
  double events_per_sec = 0.0;
  std::int64_t events = 0;
  std::int64_t frames_retried = 0;
  bool zero_loss = false;
  bool log_identical = false;
};

svc::StreamOptions CaseOptions(const E2eCase& c) {
  svc::StreamOptions options;
  options.algorithm = "LAF";
  options.batch_deadline = FLAG_deadline.Get();
  options.shards = c.shards;
  options.validate = false;
  options.world = geo::Rect{0.0, 0.0, 1000.0, 1000.0};
  return options;
}

/// The child half: serve the socket until the parent's finish frame, then
/// Finish the service and write the assignment log. Never returns.
[[noreturn]] void RunServerChild(const io::EventLog& header,
                                 const E2eCase& c,
                                 const std::string& listen,
                                 const std::string& state_dir,
                                 const std::string& log_path) {
  svc::RecoverableService::Options sopts;
  sopts.state_dir = state_dir;
  sopts.stream = CaseOptions(c);
  sopts.wal.group_commit = 1024;
  sopts.snapshot_every = 0;
  auto service = svc::RecoverableService::Open(header, sopts);
  if (!service.ok()) {
    std::fprintf(stderr, "server: %s\n",
                 service.status().ToString().c_str());
    std::_Exit(2);
  }
  net::ServerOptions nopts;
  nopts.listen = listen;
  nopts.queue_capacity = c.queue_capacity;
  net::IngestServer server(service.value().get(), nopts);
  const Status served = server.Serve();
  if (!served.ok()) {
    std::fprintf(stderr, "server: %s\n", served.ToString().c_str());
    std::_Exit(2);
  }
  auto metrics = service.value()->Finish();
  if (!metrics.ok()) {
    std::fprintf(stderr, "server: %s\n",
                 metrics.status().ToString().c_str());
    std::_Exit(2);
  }
  const std::string log = svc::RenderAssignmentLog(
      sopts.stream, service.value()->assignments(), metrics.value());
  const Status written = io::WriteFile(log_path, log);
  if (!written.ok()) {
    std::fprintf(stderr, "server: %s\n", written.ToString().c_str());
    std::_Exit(2);
  }
  if (server.counters().queue_high_water > c.queue_capacity) {
    std::fprintf(stderr, "server: queue exceeded its capacity\n");
    std::_Exit(2);
  }
  std::_Exit(0);
}

StatusOr<std::unique_ptr<net::IngestClient>> ConnectWithRetry(
    const std::string& address) {
  Status last = Status::Unavailable("never attempted");
  for (int attempt = 0; attempt < 200; ++attempt) {
    auto client = net::IngestClient::Connect(address);
    if (client.ok()) return client;
    last = client.status();
    ::usleep(25 * 1000);
  }
  return last.WithContext("server did not come up");
}

StatusOr<E2eResult> RunCase(const E2eCase& c) {
  gen::StreamConfig cfg;
  cfg.num_tasks = FLAG_tasks.Get();
  cfg.num_workers = FLAG_workers.Get();
  cfg.seed = static_cast<std::uint64_t>(FLAG_seed.Get());
  LTC_ASSIGN_OR_RETURN(const io::EventLog log, gen::GenerateStreamEvents(cfg));
  io::EventLog header = log;
  header.events.clear();

  const std::string root = StrFormat(
      "%s/ltc_e2e_%s_%d", FLAG_state_root.Get().c_str(), c.label.c_str(),
      static_cast<int>(::getpid()));
  std::filesystem::remove_all(root);
  std::error_code ec;
  std::filesystem::create_directories(root, ec);
  if (ec) {
    return Status::IOError(
        StrFormat("create %s: %s", root.c_str(), ec.message().c_str()));
  }
  const std::string listen = "unix:" + root + "/sock";
  const std::string state_dir = root + "/state";
  const std::string log_path = root + "/assignments.log";

  const pid_t child = ::fork();
  if (child < 0) return Status::Internal("fork failed");
  if (child == 0) RunServerChild(header, c, listen, state_dir, log_path);

  E2eResult result;
  {
    LTC_ASSIGN_OR_RETURN(auto client, ConnectWithRetry(listen));
    Stopwatch watch;
    std::vector<io::Event> frame;
    frame.reserve(c.frame_events);
    for (const io::Event& e : log.events) {
      frame.push_back(e);
      if (frame.size() == c.frame_events) {
        LTC_RETURN_IF_ERROR(client->SendEvents(frame));
        frame.clear();
      }
    }
    LTC_RETURN_IF_ERROR(client->SendEvents(frame));
    LTC_ASSIGN_OR_RETURN(const net::Ack finish, client->Finish());
    const double seconds = watch.ElapsedSeconds();
    result.events = log.num_events();
    result.events_per_sec =
        seconds > 0.0 ? static_cast<double>(result.events) / seconds : 0.0;
    result.frames_retried = client->frames_retried();
    result.zero_loss =
        finish.admitted == static_cast<std::uint64_t>(log.num_events());
  }

  int wstatus = 0;
  if (::waitpid(child, &wstatus, 0) != child || !WIFEXITED(wstatus) ||
      WEXITSTATUS(wstatus) != 0) {
    return Status::Internal(
        StrFormat("server child failed (wstatus %d)", wstatus));
  }

  // The wire-served log must match an in-process replay bit for bit.
  LTC_ASSIGN_OR_RETURN(const std::string served, io::ReadFile(log_path));
  const svc::StreamOptions options = CaseOptions(c);
  LTC_ASSIGN_OR_RETURN(auto engine,
                       svc::ShardedStreamEngine::Create(header, options));
  for (const io::Event& e : log.events) {
    LTC_RETURN_IF_ERROR(engine->OnEvent(e));
  }
  LTC_ASSIGN_OR_RETURN(const svc::StreamMetrics metrics, engine->Finish());
  const std::string golden =
      svc::RenderAssignmentLog(options, engine->assignments(), metrics);
  result.log_identical = served == golden;

  std::filesystem::remove_all(root);
  return result;
}

int Main(int argc, char** argv) {
  const Status parsed = ParseCommandLine(argc, argv);
  if (!parsed.ok()) {
    std::fprintf(stderr, "%s\n", parsed.ToString().c_str());
    return parsed.IsFailedPrecondition() ? 0 : 1;
  }

  // The backpressure case shrinks the queue below a burst's size so frames
  // bounce (resource-exhausted) and the client's retry loop has to absorb
  // them; zero_loss then proves admitted-exactly-once end to end.
  const std::vector<E2eCase> cases = {
      {"wire@s1", 1, 65536, 512},
      {"wire@s4", 4, 65536, 512},
      {"backpressure@s1", 1, 192, 64},
  };

  std::string json =
      "{\n  \"figure\": \"serve_e2e\",\n  \"reps\": 1,\n  \"cases\": [\n";
  bool first = true;
  bool all_ok = true;
  for (const E2eCase& c : cases) {
    auto result = RunCase(c);
    if (!result.ok()) {
      std::fprintf(stderr, "%s: %s\n", c.label.c_str(),
                   result.status().ToString().c_str());
      return 1;
    }
    const E2eResult& r = result.value();
    std::printf(
        "%-16s %10.0f events/s  %lld event(s)  %lld frame retr(ies)  "
        "zero_loss=%s  log_identical=%s\n",
        c.label.c_str(), r.events_per_sec,
        static_cast<long long>(r.events),
        static_cast<long long>(r.frames_retried),
        r.zero_loss ? "yes" : "NO", r.log_identical ? "yes" : "NO");
    all_ok = all_ok && r.zero_loss && r.log_identical;
    json += StrFormat(
        "%s    {\"label\": \"%s\", \"algorithms\": [\n"
        "      {\"name\": \"LAF\", \"events_per_sec\": %.1f, "
        "\"events\": %lld, \"frames_retried\": %lld, \"zero_loss\": %d, "
        "\"log_identical\": %d}\n    ]}",
        first ? "" : ",\n", c.label.c_str(), r.events_per_sec,
        static_cast<long long>(r.events),
        static_cast<long long>(r.frames_retried), r.zero_loss ? 1 : 0,
        r.log_identical ? 1 : 0);
    first = false;
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
  if (!all_ok) {
    std::fprintf(stderr,
                 "bench_serve_e2e: a zero-loss or byte-identity check "
                 "FAILED\n");
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace ltc

int main(int argc, char** argv) { return ltc::Main(argc, argv); }
