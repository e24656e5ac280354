// perfbench: the serving benchmark's measuring binary (README.md). run.py
// builds it and turns its last output line into the benchmark result.
//
//   perfbench --workload=road_s1 --seed=3 --seconds=15 --trace=0
//             [--size=1] [--work_dir=.] [--corrupt=served_log]
//
// Prints a provenance line, then one JSON object with the metrics, the
// correctness checks, per-metric notes and the attempted/failed counts.
// Exits 1 on any error (no result line).

#include <malloc.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <map>
#include <set>
#include <string>
#include <thread>

#include "bench.h"
#include "common/string_util.h"

#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif
#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace ltc {
namespace perfbench {
namespace {

/// --name=value arguments. (The program's Flag registry is not used: the
/// svc library registers ltc_serve's flags, --seed among them.)
StatusOr<std::map<std::string, std::string>> ParseArgs(int argc,
                                                       char** argv) {
  static const std::set<std::string> kKnown = {
      "workload", "seed", "seconds", "trace", "size", "work_dir", "corrupt"};
  std::map<std::string, std::string> args;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const std::size_t eq = arg.find('=');
    const std::string name =
        arg.rfind("--", 0) == 0 ? arg.substr(2, eq - 2) : "";
    if (eq == std::string::npos || kKnown.count(name) == 0) {
      return Status::InvalidArgument("unknown argument '" + arg + "'");
    }
    args[name] = arg.substr(eq + 1);
  }
  return args;
}

std::string Provenance(const RunConfig& run) {
  return StrFormat(
      "{\"compiler\": \"%s\", \"build_type\": \"%s\", \"nproc\": %u, "
      "\"seed\": %llu}",
      PERFBENCH_COMPILER, PERFBENCH_BUILD_TYPE,
      std::thread::hardware_concurrency(),
      static_cast<unsigned long long>(run.seed));
}

int Main(int argc, char** argv) {
  // A fixed mmap threshold: glibc otherwise raises it as large blocks are
  // freed, so peak RSS would depend on what earlier phases allocated.
  ::mallopt(M_MMAP_THRESHOLD, 256 * 1024);
  auto parsed = ParseArgs(argc, argv);
  if (!parsed.ok()) {
    std::fprintf(stderr, "%s\n", parsed.status().ToString().c_str());
    return 1;
  }
  std::map<std::string, std::string>& args = parsed.value();
  auto workload = FindWorkload(args["workload"]);
  if (!workload.ok()) {
    std::fprintf(stderr, "%s\n", workload.status().ToString().c_str());
    return 1;
  }
  Workload w = workload.value();
  RunConfig run;
  std::int64_t seed = 1, trace = 0;
  if ((args.count("seed") && !ParseInt64(args["seed"], &seed)) ||
      (args.count("trace") && !ParseInt64(args["trace"], &trace)) ||
      (args.count("seconds") && !ParseDouble(args["seconds"], &run.seconds)) ||
      (args.count("size") && !ParseDouble(args["size"], &run.size)) ||
      !(run.seconds > 0.0) || !(run.size > 0.0)) {
    std::fprintf(stderr, "bad --seed, --trace, --seconds or --size\n");
    return 1;
  }
  run.seed = static_cast<std::uint64_t>(seed);
  run.trace = trace != 0;
  if (args.count("work_dir")) run.work_dir = args["work_dir"];
  run.corrupt_served_log = args["corrupt"] == "served_log";
  // Work inside the scratch directory: socket paths stay short relative
  // paths (sun_path holds ~100 bytes) wherever the checkout lives.
  std::error_code ec;
  std::filesystem::create_directories(run.work_dir, ec);
  if (ec || ::chdir(run.work_dir.c_str()) != 0) {
    std::fprintf(stderr, "cannot enter --work_dir %s\n",
                 run.work_dir.c_str());
    return 1;
  }
  run.work_dir = ".";

  auto input = MakeInput(w, run);
  if (!input.ok()) {
    std::fprintf(stderr, "input: %s\n", input.status().ToString().c_str());
    return 1;
  }
  if (run.size != 1.0 && w.snapshot_every > 0) {
    // Reduced-size runs keep three checkpoints and a WAL suffix of at least
    // one group commit after the last one, for the recovery checks.
    w.snapshot_every = std::max<std::int64_t>(
        64, (input.value().log.num_events() - 128) / 3);
  }
  Report report;
  // The golden replay validated the arrangement against every LTC
  // constraint (MakeInput fails otherwise), outside any timed window.
  report.Check("golden_arrangement_valid",
               input.value().golden_metrics.validated);
  const Status status = RunInProcess(w, run, input.value(), &report);
  if (!status.ok()) {
    std::fprintf(stderr, "%s: %s\n", w.name.c_str(),
                 status.ToString().c_str());
    return 1;
  }
  std::printf("provenance %s\n", Provenance(run).c_str());
  std::printf("%s\n", report.Json().c_str());
  return 0;
}

}  // namespace
}  // namespace perfbench
}  // namespace ltc

int main(int argc, char** argv) { return ltc::perfbench::Main(argc, argv); }
