// City simulation: a Foursquare-like check-in stream (the paper's New York /
// Tokyo setting, Table V) replayed through all five algorithms, with a
// completion-timeline view showing how each algorithm burns down the task
// backlog over the arrival stream.
//
// Build & run:  ./build/examples/city_simulation [--city=Tokyo] [--scale=0.02]

#include <cstdio>
#include <string>
#include <vector>

#include "algo/registry.h"
#include "common/flags.h"
#include "common/string_util.h"
#include "common/table.h"
#include "gen/foursquare.h"
#include "model/eligibility.h"
#include "sim/engine.h"

namespace {

ltc::Flag<std::string> FLAG_city("city", "NewYork", "NewYork or Tokyo");
ltc::Flag<double> FLAG_scale("scale", 0.02,
                             "fraction of the Table V cardinalities");
ltc::Flag<double> FLAG_epsilon("epsilon", 0.1, "tolerable error rate");

/// Renders a 40-char burn-down bar: '#' = completed share of tasks.
std::string Bar(double fraction) {
  const int width = 40;
  const int filled = static_cast<int>(fraction * width + 0.5);
  std::string bar(static_cast<std::size_t>(filled), '#');
  bar.append(static_cast<std::size_t>(width - filled), '.');
  return bar;
}

}  // namespace

int main(int argc, char** argv) {
  if (auto s = ltc::ParseCommandLine(argc, argv); !s.ok()) {
    std::fprintf(stderr, "%s\n", s.ToString().c_str());
    return s.IsFailedPrecondition() ? 0 : 1;
  }

  ltc::gen::FoursquareConfig config;
  config.city = FLAG_city.Get() == "Tokyo" ? ltc::gen::TokyoPreset()
                                           : ltc::gen::NewYorkPreset();
  config.scale = FLAG_scale.Get();
  config.epsilon = FLAG_epsilon.Get();
  config.seed = 99;

  auto instance = ltc::gen::GenerateFoursquareLike(config);
  instance.status().CheckOK();
  std::printf("city %s at scale %g: %s\n\n", config.city.name.c_str(),
              config.scale, instance->Summary().c_str());

  auto index = ltc::model::EligibilityIndex::Build(&instance.value());
  index.status().CheckOK();

  // Completion timeline for each online algorithm: sample the completed-task
  // count at 10 checkpoints over the stream.
  const std::int64_t total = instance->num_workers();
  for (const char* name : {"Random", "LAF", "AAM"}) {
    auto scheduler = ltc::algo::MakeOnlineScheduler(name, 7);
    scheduler.status().CheckOK();
    const auto workers_seen =
        ltc::algo::DriveOnline(*instance, *index, scheduler->get());
    workers_seen.status().CheckOK();
    const auto& assignments = (*scheduler)->arrangement().assignments();
    std::printf("%s burn-down (completed tasks over arrivals):\n", name);
    // Replays the commitments arrival by arrival to sample the backlog.
    ltc::model::Arrangement replay(instance->num_tasks(), instance->Delta());
    std::size_t next = 0;
    std::int64_t next_checkpoint = total / 10;
    for (ltc::model::WorkerIndex w = 1; w <= *workers_seen; ++w) {
      for (; next < assignments.size() && assignments[next].worker <= w;
           ++next) {
        const auto& a = assignments[next];
        replay.Add(a.worker, a.task, a.acc_star);
      }
      if (w >= next_checkpoint) {
        const double fraction =
            static_cast<double>(replay.completed_tasks()) /
            static_cast<double>(instance->num_tasks());
        std::printf("  %7d |%s| %5.1f%%\n", w, Bar(fraction).c_str(),
                    fraction * 100.0);
        next_checkpoint += total / 10;
      }
    }
    const auto& arr = (*scheduler)->arrangement();
    std::printf("  -> %s after %d workers\n\n",
                arr.AllCompleted() ? "all tasks completed" : "stream exhausted",
                arr.MaxWorkerIndex());
  }

  // Full roster comparison.
  ltc::TablePrinter table(
      {"algorithm", "latency", "completed", "runtime(ms)", "assignments"});
  for (const std::string& name : ltc::algo::StandardAlgorithms()) {
    auto metrics = ltc::sim::RunAlgorithm(name, *instance, *index);
    metrics.status().CheckOK();
    table.AddRow({name, ltc::TablePrinter::Cell(metrics->latency),
                  metrics->completed ? "yes" : "no",
                  ltc::StrFormat("%.1f", metrics->runtime_seconds * 1e3),
                  ltc::TablePrinter::Cell(metrics->stats.assignments)});
  }
  std::printf("%s", table.Render().c_str());
  return 0;
}
