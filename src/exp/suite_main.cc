#include "exp/suite_main.h"

#include <cstdio>
#include <string>
#include <vector>

#include "common/file_util.h"
#include "common/flags.h"
#include "common/string_util.h"
#include "common/timer.h"
#include "exp/figures.h"
#include "exp/report.h"
#include "exp/sweep.h"

namespace ltc {
namespace exp {

namespace {

Flag<std::string> FLAG_figure("figure", "",
                              "comma-separated suite labels to run, or "
                              "'all' for the whole paper (see --list)");
Flag<bool> FLAG_list("list", false, "list the runnable suite labels and exit");
Flag<bool> FLAG_paper("paper", false,
                      "run the paper's full Table IV/V factors (slow)");
Flag<std::int64_t> FLAG_reps("reps", 3, "repetitions per point (paper: 30)");
Flag<std::int64_t> FLAG_seed("seed", 1, "base RNG seed");
Flag<std::int64_t> FLAG_threads(
    "threads", 1,
    "worker threads for the sweep cells (0 = hardware concurrency); "
    "schedule-dependent outputs are identical for every value");
Flag<std::string> FLAG_out_dir("out_dir", "results", "CSV output directory");
Flag<std::string> FLAG_skip("skip", "",
                            "comma-separated algorithm names to skip");
Flag<std::string> FLAG_cases("cases", "",
                             "comma-separated case labels to run (all when "
                             "empty)");
Flag<std::string> FLAG_json("json", "",
                            "write a machine-readable JSON summary here");
Flag<std::int64_t> FLAG_trials("trials", 2000,
                               "error_rate suite: voting trials per task "
                               "and rep");

std::vector<std::string> SplitTrimmed(const std::string& csv) {
  std::vector<std::string> out;
  if (csv.empty()) return out;
  for (const std::string& part : Split(csv, ',')) {
    const std::string trimmed = Trim(part);
    if (!trimmed.empty()) out.push_back(trimmed);
  }
  return out;
}

void PrintSuiteList() {
  std::printf("runnable suites (bench_suite --figure=LABEL[,LABEL...]):\n");
  for (const SuiteDef& def : SuiteRegistry()) {
    std::printf("  %-24s %s%s%s\n", def.label.c_str(), def.title.c_str(),
                def.paper_figures.empty() ? "" : "  [Fig. ",
                def.paper_figures.empty()
                    ? ""
                    : (def.paper_figures + "]").c_str());
  }
}

}  // namespace

int SuiteMain(int argc, char** argv) {
  const Status parsed = ParseCommandLine(argc, argv);
  if (!parsed.ok()) {
    std::fprintf(stderr, "%s\n", parsed.ToString().c_str());
    return parsed.IsFailedPrecondition() ? 0 : 1;
  }
  if (FLAG_list.Get()) {
    PrintSuiteList();
    return 0;
  }

  std::vector<std::string> labels = SplitTrimmed(FLAG_figure.Get());
  if (labels.size() == 1 && labels.front() == "all") {
    labels = SuiteLabels();
  }
  if (labels.empty()) {
    std::fprintf(stderr,
                 "bench_suite: pass --figure=LABEL[,LABEL...] or "
                 "--figure=all\n\n");
    PrintSuiteList();
    return 1;
  }
  std::vector<const SuiteDef*> suites;
  for (const std::string& label : labels) {
    const SuiteDef* def = FindSuite(label);
    if (def == nullptr) {
      std::fprintf(stderr, "unknown suite label '%s'; known labels: %s\n",
                   label.c_str(), Join(SuiteLabels(), ", ").c_str());
      return 1;
    }
    suites.push_back(def);
  }

  SweepOptions sweep;
  sweep.reps = FLAG_reps.Get();
  sweep.seed = static_cast<std::uint64_t>(FLAG_seed.Get());
  sweep.threads = static_cast<int>(FLAG_threads.Get());
  sweep.paper_scale = FLAG_paper.Get();
  sweep.skip = SplitTrimmed(FLAG_skip.Get());
  sweep.case_filter = SplitTrimmed(FLAG_cases.Get());
  sweep.trials = FLAG_trials.Get();
  if (sweep.reps <= 0) {
    std::fprintf(stderr, "--reps must be positive\n");
    return 1;
  }
  if (sweep.threads < 0) {
    std::fprintf(stderr, "--threads must be >= 0\n");
    return 1;
  }
  OutputOptions output;
  output.out_dir = FLAG_out_dir.Get();
  output.json_path = FLAG_json.Get();

  Stopwatch total_watch;
  std::vector<std::string> json_objects;
  for (const SuiteDef* def : suites) {
    auto json = RunSuite(*def, sweep, output);
    if (!json.ok()) {
      std::fprintf(stderr, "%s\n", json.status().ToString().c_str());
      return 1;
    }
    if (!json.value().empty()) json_objects.push_back(std::move(json).value());
  }

  if (!output.json_path.empty()) {
    std::string payload;
    if (json_objects.size() == 1) {
      // One suite: the BENCH_*.json object verbatim.
      payload = json_objects.front();
    } else {
      payload = "{\n\"suites\": [\n";
      for (std::size_t i = 0; i < json_objects.size(); ++i) {
        payload += json_objects[i];
        if (i + 1 < json_objects.size()) payload += ",\n";
      }
      payload += "]\n}\n";
    }
    const Status written = WriteTextFile(output.json_path, payload);
    if (!written.ok()) {
      std::fprintf(stderr, "%s\n", written.ToString().c_str());
      return 1;
    }
    std::printf("JSON summary written to %s\n", output.json_path.c_str());
  }
  std::printf("total: %zu suite(s) in %.1fs\n", suites.size(),
              total_watch.ElapsedSeconds());
  return 0;
}

}  // namespace exp
}  // namespace ltc
