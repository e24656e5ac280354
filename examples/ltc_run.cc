// ltc_run: command-line runner exposing the whole library — generate or load
// a workload, run any algorithm, optionally save the workload/arrangement.
//
// Examples:
//   ./build/examples/ltc_run --algo=AAM --tasks=300 --workers=4000
//   ./build/examples/ltc_run --algo=MCF-LTC --generator=foursquare
//       --city=Tokyo --scale=0.02 --epsilon=0.14
//   ./build/examples/ltc_run --save_workload=/tmp/w.txt --algo=LAF
//   ./build/examples/ltc_run --load_workload=/tmp/w.txt --algo=Random
//       --save_arrangement=/tmp/a.txt

#include <cstdio>
#include <string>

#include "algo/registry.h"
#include "common/flags.h"
#include "common/string_util.h"
#include "gen/foursquare.h"
#include "gen/synthetic.h"
#include "io/workload_io.h"
#include "model/eligibility.h"
#include "model/voting.h"
#include "sim/engine.h"

namespace {

ltc::Flag<std::string> FLAG_algo("algo", "AAM",
                                 "MCF-LTC | Base-off | LAF | AAM | Random | "
                                 "Exhaustive");
ltc::Flag<std::string> FLAG_generator("generator", "synthetic",
                                      "synthetic | foursquare");
ltc::Flag<std::int64_t> FLAG_tasks("tasks", 300, "synthetic: number of tasks");
ltc::Flag<std::int64_t> FLAG_workers("workers", 4000,
                                     "synthetic: number of workers");
ltc::Flag<double> FLAG_grid("grid", 316.0, "synthetic: grid side");
ltc::Flag<std::string> FLAG_city("city", "NewYork",
                                 "foursquare: NewYork | Tokyo");
ltc::Flag<double> FLAG_scale("scale", 0.02, "foursquare: Table V fraction");
ltc::Flag<double> FLAG_epsilon("epsilon", 0.1, "tolerable error rate");
ltc::Flag<std::int64_t> FLAG_capacity("capacity", 6, "worker capacity K");
ltc::Flag<std::int64_t> FLAG_seed("seed", 1, "RNG seed");
ltc::Flag<std::string> FLAG_load_workload("load_workload", "",
                                          "read workload from this file");
ltc::Flag<std::string> FLAG_save_workload("save_workload", "",
                                          "write workload to this file");
ltc::Flag<std::string> FLAG_save_arrangement(
    "save_arrangement", "", "write the resulting arrangement to this file");
ltc::Flag<std::int64_t> FLAG_voting_trials(
    "voting_trials", 0, "if > 0, simulate this many voting rounds per task");

ltc::StatusOr<ltc::model::ProblemInstance> BuildInstance() {
  if (!FLAG_load_workload.Get().empty()) {
    return ltc::io::LoadInstance(FLAG_load_workload.Get());
  }
  if (FLAG_generator.Get() == "synthetic") {
    ltc::gen::SyntheticConfig cfg;
    cfg.num_tasks = FLAG_tasks.Get();
    cfg.num_workers = FLAG_workers.Get();
    cfg.grid_side = FLAG_grid.Get();
    cfg.epsilon = FLAG_epsilon.Get();
    cfg.capacity = static_cast<std::int32_t>(FLAG_capacity.Get());
    cfg.seed = static_cast<std::uint64_t>(FLAG_seed.Get());
    return ltc::gen::GenerateSynthetic(cfg);
  }
  if (FLAG_generator.Get() == "foursquare") {
    ltc::gen::FoursquareConfig cfg;
    cfg.city = FLAG_city.Get() == "Tokyo" ? ltc::gen::TokyoPreset()
                                          : ltc::gen::NewYorkPreset();
    cfg.scale = FLAG_scale.Get();
    cfg.epsilon = FLAG_epsilon.Get();
    cfg.capacity = static_cast<std::int32_t>(FLAG_capacity.Get());
    cfg.seed = static_cast<std::uint64_t>(FLAG_seed.Get());
    return ltc::gen::GenerateFoursquareLike(cfg);
  }
  return ltc::Status::InvalidArgument("unknown generator '" +
                                      FLAG_generator.Get() + "'");
}

int RealMain(int argc, char** argv) {
  if (auto s = ltc::ParseCommandLine(argc, argv); !s.ok()) {
    std::fprintf(stderr, "%s\n", s.ToString().c_str());
    return s.IsFailedPrecondition() ? 0 : 1;
  }

  auto instance = BuildInstance();
  if (!instance.ok()) {
    std::fprintf(stderr, "workload: %s\n", instance.status().ToString().c_str());
    return 1;
  }
  std::printf("workload: %s\n", instance->Summary().c_str());

  if (!FLAG_save_workload.Get().empty()) {
    if (auto s = ltc::io::SaveInstance(*instance, FLAG_save_workload.Get());
        !s.ok()) {
      std::fprintf(stderr, "save_workload: %s\n", s.ToString().c_str());
      return 1;
    }
    std::printf("workload saved to %s\n", FLAG_save_workload.Get().c_str());
  }

  auto index = ltc::model::EligibilityIndex::Build(&instance.value());
  if (!index.ok()) {
    std::fprintf(stderr, "index: %s\n", index.status().ToString().c_str());
    return 1;
  }

  ltc::sim::EngineOptions options;
  options.seed = static_cast<std::uint64_t>(FLAG_seed.Get());
  auto metrics =
      ltc::sim::RunAlgorithm(FLAG_algo.Get(), *instance, *index, options);
  if (!metrics.ok()) {
    std::fprintf(stderr, "run: %s\n", metrics.status().ToString().c_str());
    return 1;
  }
  std::printf("algorithm: %s\n", metrics->algorithm.c_str());
  std::printf("completed: %s\n", metrics->completed ? "yes" : "no");
  std::printf("latency:   %lld\n", static_cast<long long>(metrics->latency));
  std::printf("runtime:   %s\n",
              ltc::HumanDuration(metrics->runtime_seconds).c_str());
  std::printf("memory:    %s\n",
              ltc::HumanBytes(metrics->peak_memory_bytes).c_str());
  std::printf("assignments: %lld, workers used: %lld, total Acc*: %.2f\n",
              static_cast<long long>(metrics->stats.assignments),
              static_cast<long long>(metrics->stats.workers_used),
              metrics->stats.total_acc_star);

  // Optional extras: persist / vote. Both need the arrangement, so re-run
  // the (deterministic) scheduler once more outside the timed path.
  const bool want_arrangement = !FLAG_save_arrangement.Get().empty() ||
                                FLAG_voting_trials.Get() > 0;
  if (want_arrangement) {
    auto online = ltc::algo::IsOnlineAlgorithm(FLAG_algo.Get());
    online.status().CheckOK();
    std::unique_ptr<ltc::model::Arrangement> arrangement;
    if (online.value()) {
      auto scheduler =
          ltc::algo::MakeOnlineScheduler(FLAG_algo.Get(), options.seed);
      scheduler.status().CheckOK();
      ltc::algo::DriveOnline(*instance, *index, scheduler->get())
          .status()
          .CheckOK();
      arrangement = std::make_unique<ltc::model::Arrangement>(
          (*scheduler)->arrangement());
    } else {
      auto scheduler = ltc::algo::MakeOfflineScheduler(FLAG_algo.Get());
      scheduler.status().CheckOK();
      auto result = (*scheduler)->Run(*instance, *index);
      result.status().CheckOK();
      arrangement =
          std::make_unique<ltc::model::Arrangement>(result->arrangement);
    }
    if (!FLAG_save_arrangement.Get().empty()) {
      const auto s = ltc::io::WriteFile(
          FLAG_save_arrangement.Get(),
          ltc::io::SerializeArrangement(*arrangement));
      if (!s.ok()) {
        std::fprintf(stderr, "save_arrangement: %s\n", s.ToString().c_str());
        return 1;
      }
      std::printf("arrangement saved to %s\n",
                  FLAG_save_arrangement.Get().c_str());
    }
    if (FLAG_voting_trials.Get() > 0) {
      auto outcome = ltc::model::SimulateVoting(
          *instance, *arrangement, FLAG_voting_trials.Get(), options.seed);
      outcome.status().CheckOK();
      std::printf("voting: empirical error %.5f over %lld tasks "
                  "(promised < %g)\n",
                  outcome->empirical_error_rate,
                  static_cast<long long>(outcome->tasks), instance->epsilon);
    }
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) { return RealMain(argc, argv); }
