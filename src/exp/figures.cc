#include "exp/figures.h"

#include <cmath>
#include <cstdio>
#include <memory>

#include "algo/mcf_ltc.h"
#include "common/string_util.h"
#include "common/table.h"
#include "exp/deadline.h"
#include "exp/extensions.h"
#include "gen/foursquare.h"
#include "gen/road.h"
#include "geo/road_graph.h"
#include "model/accuracy.h"
#include "sim/presets.h"

namespace ltc {
namespace exp {

double SuiteScale(bool paper_scale) { return paper_scale ? 1.0 : 0.1; }

std::int64_t ScaledCount(std::int64_t paper_value, double scale) {
  return std::max<std::int64_t>(
      1, static_cast<std::int64_t>(
             std::llround(static_cast<double>(paper_value) * scale)));
}

gen::SyntheticConfig BaseSyntheticConfig(bool paper_scale) {
  gen::SyntheticConfig cfg = sim::TableFourDefaults();
  const double s = SuiteScale(paper_scale);
  cfg.num_tasks = ScaledCount(cfg.num_tasks, s);
  cfg.num_workers = ScaledCount(cfg.num_workers, s);
  cfg.grid_side *= std::sqrt(s);
  return cfg;
}

namespace {

Suite MakeFig3Tasks(bool paper_scale) {
  Suite suite{"fig3_tasks", "|T|", {}, StandardRoster()};
  for (std::int64_t paper_tasks : sim::TableFourTaskLevels()) {
    const std::int64_t tasks = ScaledCount(paper_tasks, SuiteScale(paper_scale));
    suite.cases.push_back(SuiteCase{
        StrFormat("%lld", static_cast<long long>(paper_tasks)),
        [tasks, paper_scale](std::uint64_t seed) {
          gen::SyntheticConfig cfg = BaseSyntheticConfig(paper_scale);
          cfg.num_tasks = tasks;
          cfg.seed = seed;
          return gen::GenerateSynthetic(cfg);
        }});
  }
  return suite;
}

Suite MakeFig3Capacity(bool paper_scale) {
  Suite suite{"fig3_capacity", "K", {}, StandardRoster()};
  for (std::int32_t capacity : sim::TableFourCapacityLevels()) {
    suite.cases.push_back(SuiteCase{
        StrFormat("%d", capacity), [capacity, paper_scale](std::uint64_t seed) {
          gen::SyntheticConfig cfg = BaseSyntheticConfig(paper_scale);
          cfg.capacity = capacity;
          cfg.seed = seed;
          return gen::GenerateSynthetic(cfg);
        }});
  }
  return suite;
}

Suite MakeFig3Accuracy(bool paper_scale, gen::AccuracyDistribution dist) {
  const bool normal = dist == gen::AccuracyDistribution::kNormal;
  Suite suite{normal ? "fig3_accuracy_normal" : "fig3_accuracy_uniform",
              normal ? "mu" : "mean",
              {},
              StandardRoster()};
  for (double mean : sim::TableFourAccuracyMeanLevels()) {
    suite.cases.push_back(SuiteCase{
        StrFormat("%.2f", mean), [mean, dist, paper_scale](std::uint64_t seed) {
          gen::SyntheticConfig cfg = BaseSyntheticConfig(paper_scale);
          cfg.distribution = dist;
          cfg.accuracy_mean = mean;
          cfg.seed = seed;
          return gen::GenerateSynthetic(cfg);
        }});
  }
  return suite;
}

Suite MakeFig4Epsilon(bool paper_scale) {
  Suite suite{"fig4_epsilon", "eps", {}, StandardRoster()};
  for (double epsilon : sim::TableFourEpsilonLevels()) {
    suite.cases.push_back(SuiteCase{
        StrFormat("%.2f", epsilon), [epsilon, paper_scale](std::uint64_t seed) {
          gen::SyntheticConfig cfg = BaseSyntheticConfig(paper_scale);
          cfg.epsilon = epsilon;
          cfg.seed = seed;
          return gen::GenerateSynthetic(cfg);
        }});
  }
  return suite;
}

Suite MakeFig4Scalability(bool paper_scale) {
  // 1/50 rather than the usual 1/10: a 1/10 scale of this sweep still
  // reaches |T| = 10000 under MCF-LTC's flow solves, which is minutes of
  // work (the paper itself notes MCF-LTC "becomes inefficient with very
  // large numbers of tasks").
  const double scale = paper_scale ? 1.0 : 0.02;
  Suite suite{"fig4_scalability", "|T|", {}, StandardRoster()};
  for (std::int64_t paper_tasks : sim::TableFourScalabilityTasks()) {
    const auto tasks = static_cast<std::int64_t>(
        std::llround(static_cast<double>(paper_tasks) * scale));
    const auto workers = static_cast<std::int64_t>(std::llround(
        static_cast<double>(sim::TableFourScalabilityWorkers()) * scale));
    suite.cases.push_back(SuiteCase{
        StrFormat("%lld", static_cast<long long>(paper_tasks)),
        [tasks, workers, scale](std::uint64_t seed) {
          gen::SyntheticConfig cfg = sim::TableFourDefaults();
          cfg.num_tasks = tasks;
          cfg.num_workers = workers;
          cfg.grid_side = 1000.0 * std::sqrt(scale);
          cfg.seed = seed;
          return gen::GenerateSynthetic(cfg);
        }});
  }
  return suite;
}

/// The fig4_scalability grid restricted to MCF-LTC, run warm and cold: the
/// PR-6 warm-start speedup as a first-class suite. Latency cells must be
/// bit-identical between the two variants (warm starts are an optimisation,
/// not a policy change); mean_runtime_seconds carries the speedup that
/// BENCH_PR6.json records and CI's bench-smoke gate watches.
Suite MakeFig4Warmstart(bool paper_scale) {
  Suite suite = MakeFig4Scalability(paper_scale);
  suite.name = "fig4_warmstart";
  suite.algorithms.clear();
  auto add = [&suite](std::string name, bool warm) {
    algo::McfLtcOptions mcf_options;
    mcf_options.warm_start = warm;
    suite.algorithms.push_back(SuiteAlgo{
        std::move(name),
        [mcf_options](const model::ProblemInstance& instance,
                      const model::EligibilityIndex& index,
                      const sim::EngineOptions& engine_options) {
          algo::McfLtc mcf(mcf_options);
          return sim::RunOffline(instance, index, &mcf, engine_options);
        }});
  };
  add("MCF-LTC-warm", true);
  add("MCF-LTC-cold", false);
  return suite;
}

Suite MakeFig4City(bool paper_scale, bool tokyo) {
  Suite suite{tokyo ? "fig4_tokyo" : "fig4_newyork",
              "eps",
              {},
              StandardRoster()};
  for (double epsilon : sim::TableFourEpsilonLevels()) {
    suite.cases.push_back(SuiteCase{
        StrFormat("%.2f", epsilon),
        [epsilon, tokyo, paper_scale](std::uint64_t seed) {
          gen::FoursquareConfig cfg =
              tokyo ? sim::TableFiveTokyo() : sim::TableFiveNewYork();
          cfg.scale = SuiteScale(paper_scale);
          cfg.epsilon = epsilon;
          cfg.seed = seed;
          return gen::GenerateFoursquareLike(cfg);
        }});
  }
  return suite;
}

/// Smaller than the figure benches: ablations run many MCF variants.
gen::SyntheticConfig AblationBaseConfig(bool paper_scale) {
  gen::SyntheticConfig cfg = BaseSyntheticConfig(paper_scale);
  const double s = SuiteScale(paper_scale);
  cfg.num_tasks = ScaledCount(2000, s);
  cfg.num_workers = ScaledCount(30000, s);
  return cfg;
}

SuiteCase AblationCase(std::string label, bool paper_scale) {
  return SuiteCase{std::move(label), [paper_scale](std::uint64_t seed) {
                     gen::SyntheticConfig cfg = AblationBaseConfig(paper_scale);
                     cfg.seed = seed;
                     return gen::GenerateSynthetic(cfg);
                   }};
}

/// MCF-LTC option variants as custom-runner algorithms; each cell
/// constructs its own scheduler, so concurrent cells never share state.
Suite MakeAblationMcfVariants(bool paper_scale) {
  Suite suite{"ablation_mcf_variants", "config", {}, {}};
  suite.cases.push_back(AblationCase("base", paper_scale));
  auto add = [&suite](std::string name, algo::McfLtcOptions mcf_options) {
    suite.algorithms.push_back(SuiteAlgo{
        std::move(name),
        [mcf_options](const model::ProblemInstance& instance,
                      const model::EligibilityIndex& index,
                      const sim::EngineOptions& engine_options) {
          algo::McfLtc mcf(mcf_options);
          return sim::RunOffline(instance, index, &mcf, engine_options);
        }});
  };
  for (double factor : {0.25, 0.5, 1.0, 2.0, 4.0}) {
    algo::McfLtcOptions mcf_options;
    mcf_options.batch_factor = factor;
    add(StrFormat("batch=%.2fm", factor), mcf_options);
  }
  algo::McfLtcOptions no_tie;
  no_tie.index_tie_break = false;
  add("no-tie-break", no_tie);
  algo::McfLtcOptions no_warm;
  no_warm.warm_start = false;
  add("cold-start", no_warm);
  return suite;
}

/// Runs the MCF variants sweep, then adds the solver-diagnostics table
/// (mean batches / augmentations per variant) the standard report omits.
StatusOr<std::string> RunAblationMcfVariants(const SweepOptions& sweep,
                                             const OutputOptions& output) {
  SweepRunner runner(sweep);
  LTC_ASSIGN_OR_RETURN(SuiteResult result,
                       runner.Run(MakeAblationMcfVariants(sweep.paper_scale)));
  LTC_RETURN_IF_ERROR(WriteSuiteReport(result, output));
  TablePrinter table({"variant", "batches", "augmentations"});
  for (const CaseResult& case_result : result.cases) {
    for (const AlgoResult& algo_result : case_result.algorithms) {
      double batches = 0;
      double augmentations = 0;
      for (const sim::RunMetrics& rep : algo_result.reps) {
        batches += static_cast<double>(rep.stats.mcf_batches);
        augmentations += static_cast<double>(rep.stats.mcf_augmentations);
      }
      const auto reps = static_cast<double>(algo_result.reps.size());
      table.AddRow({algo_result.name, StrFormat("%.1f", batches / reps),
                    StrFormat("%.0f", augmentations / reps)});
    }
  }
  if (output.print_tables) {
    std::printf("\n-- ablation_mcf_variants: solver diagnostics --\n%s",
                table.Render().c_str());
  }
  LTC_RETURN_IF_ERROR(
      table.WriteCsv(output.out_dir + "/ablation_mcf_variants_solver.csv"));
  return SuiteResultJson(result);
}

Suite MakeAblationAccuracyFn(bool paper_scale) {
  Suite suite{"ablation_accuracy_fn", "model", {}, StandardRoster()};
  struct Model {
    const char* name;
    std::function<std::shared_ptr<model::AccuracyFunction>(double dmax)> make;
  };
  const Model models[] = {
      {"sigmoid(paper)",
       [](double dmax) {
         return std::make_shared<model::SigmoidDistanceAccuracy>(dmax);
       }},
      {"step",
       [](double dmax) {
         return std::make_shared<model::StepDistanceAccuracy>(dmax);
       }},
      {"flat",
       [](double) { return std::make_shared<model::FlatAccuracy>(); }},
  };
  for (const Model& m : models) {
    auto make = m.make;
    suite.cases.push_back(SuiteCase{
        m.name, [make, paper_scale](std::uint64_t seed)
                    -> StatusOr<model::ProblemInstance> {
          gen::SyntheticConfig cfg = AblationBaseConfig(paper_scale);
          cfg.seed = seed;
          auto instance = gen::GenerateSynthetic(cfg);
          if (!instance.ok()) return instance;
          instance.value().accuracy = make(cfg.dmax);
          return instance;
        }});
  }
  return suite;
}

Suite MakeAblationAamStrategy(bool paper_scale) {
  Suite suite{"ablation_aam_strategy",
              "eps",
              {},
              NamedRoster({"LAF", "LGF-only", "LRF-only", "AAM"})};
  for (double epsilon : {0.06, 0.14, 0.22}) {
    suite.cases.push_back(SuiteCase{
        StrFormat("%.2f", epsilon), [epsilon, paper_scale](std::uint64_t seed) {
          gen::SyntheticConfig cfg = AblationBaseConfig(paper_scale);
          cfg.epsilon = epsilon;
          cfg.seed = seed;
          return gen::GenerateSynthetic(cfg);
        }});
  }
  return suite;
}

Suite MakeAblationDmax(bool paper_scale) {
  Suite suite{"ablation_dmax", "dmax", {}, StandardRoster()};
  for (double dmax : {10.0, 20.0, 30.0, 40.0, 50.0}) {
    suite.cases.push_back(SuiteCase{
        StrFormat("%.0f", dmax), [dmax, paper_scale](std::uint64_t seed) {
          gen::SyntheticConfig cfg = AblationBaseConfig(paper_scale);
          cfg.dmax = dmax;
          cfg.seed = seed;
          return gen::GenerateSynthetic(cfg);
        }});
  }
  return suite;
}

/// The full scheduler roster under road-network travel times: each case
/// rebinds the instance's accuracy model onto a RoadMetric over a street
/// grid at one congestion level ("0.00" = free flow, the Euclidean-like
/// floor). One graph per case, shared across seeds and algorithm cells —
/// the road network is infrastructure; RoadMetric's thread-local Dijkstra
/// workspaces keep the concurrent cells safe (geo/road_graph.h).
Suite MakeRoadSuite(bool paper_scale) {
  Suite suite{"road", "congestion", {}, StandardRoster()};
  for (double congestion : {0.0, 0.5, 1.0}) {
    gen::RoadConfig road;
    road.congestion = congestion;
    road.world_side = BaseSyntheticConfig(paper_scale).grid_side;
    auto built = gen::GenerateGridRoadGraph(road);
    if (!built.ok()) {
      // Surfaced per-seed so the sweep reports the real status.
      const Status status = built.status();
      suite.cases.push_back(SuiteCase{
          StrFormat("%.2f", congestion),
          [status](std::uint64_t) -> StatusOr<model::ProblemInstance> {
            return status;
          }});
      continue;
    }
    auto metric = std::make_shared<geo::RoadMetric>(
        std::make_shared<geo::RoadGraph>(std::move(built).value()));
    suite.cases.push_back(SuiteCase{
        StrFormat("%.2f", congestion),
        [metric, paper_scale](std::uint64_t seed)
            -> StatusOr<model::ProblemInstance> {
          gen::SyntheticConfig cfg = AblationBaseConfig(paper_scale);
          cfg.seed = seed;
          LTC_ASSIGN_OR_RETURN(model::ProblemInstance instance,
                               gen::GenerateSynthetic(cfg));
          LTC_ASSIGN_OR_RETURN(
              instance.accuracy,
              model::RebindMetric(*instance.accuracy, metric));
          return instance;
        }});
  }
  return suite;
}

std::vector<SuiteDef> BuildRegistry() {
  std::vector<SuiteDef> defs;
  defs.push_back({"fig3_tasks", "3a/3e/3i",
                  "latency/runtime/memory vs |T| (Table IV)", MakeFig3Tasks,
                  nullptr});
  defs.push_back({"fig3_capacity", "3b/3f/3j",
                  "latency/runtime/memory vs capacity K", MakeFig3Capacity,
                  nullptr});
  defs.push_back({"fig3_accuracy_normal", "3c/3g/3k",
                  "normal accuracy mean sweep",
                  [](bool paper_scale) {
                    return MakeFig3Accuracy(paper_scale,
                                            gen::AccuracyDistribution::kNormal);
                  },
                  nullptr});
  defs.push_back({"fig3_accuracy_uniform", "3d/3h/3l",
                  "uniform accuracy mean sweep",
                  [](bool paper_scale) {
                    return MakeFig3Accuracy(
                        paper_scale, gen::AccuracyDistribution::kUniform);
                  },
                  nullptr});
  defs.push_back({"fig4_epsilon", "4a/4e/4i", "tolerable error rate sweep",
                  MakeFig4Epsilon, nullptr});
  defs.push_back({"fig4_scalability", "4b/4f/4j",
                  "scalability to |T| = 100K, |W| = 400K", MakeFig4Scalability,
                  nullptr});
  defs.push_back({"fig4_warmstart", "",
                  "MCF-LTC warm vs cold flow solves on the scalability grid",
                  MakeFig4Warmstart, nullptr});
  defs.push_back({"fig4_newyork", "4c/4g/4k",
                  "eps sweep on the New York preset (Table V)",
                  [](bool paper_scale) {
                    return MakeFig4City(paper_scale, /*tokyo=*/false);
                  },
                  nullptr});
  defs.push_back({"fig4_tokyo", "4d/4h/4l",
                  "eps sweep on the Tokyo preset (Table V)",
                  [](bool paper_scale) {
                    return MakeFig4City(paper_scale, /*tokyo=*/true);
                  },
                  nullptr});
  defs.push_back({"ablation_mcf_variants", "",
                  "MCF-LTC batch size / tie-break / cold-start variants",
                  nullptr, RunAblationMcfVariants});
  defs.push_back({"ablation_accuracy_fn", "",
                  "accuracy model: paper sigmoid vs step vs flat",
                  MakeAblationAccuracyFn, nullptr});
  defs.push_back({"ablation_aam_strategy", "",
                  "AAM switching rule vs its pure LGF/LRF halves",
                  MakeAblationAamStrategy, nullptr});
  defs.push_back({"ablation_dmax", "", "dmax sensitivity", MakeAblationDmax,
                  nullptr});
  defs.push_back({"road", "",
                  "the full roster under road-network travel times "
                  "(congestion sweep)",
                  MakeRoadSuite, nullptr});
  defs.push_back({"deadline", "",
                  "adaptive (forecast-driven) vs fixed batching deadlines "
                  "on the streaming service",
                  nullptr, RunDeadlineSuite});
  defs.push_back({"lower_bound", "", "gap to the Theorem-2 lower bound",
                  nullptr, RunLowerBoundSuite});
  defs.push_back({"error_rate", "",
                  "empirical Hoeffding validation (--trials rounds)", nullptr,
                  RunErrorRateSuite});
  defs.push_back({"truth", "",
                  "weighted voting vs majority vs EM truth inference",
                  nullptr, RunTruthSuite});
  return defs;
}

}  // namespace

const std::vector<SuiteDef>& SuiteRegistry() {
  static const std::vector<SuiteDef>* registry =
      new std::vector<SuiteDef>(BuildRegistry());
  return *registry;
}

const SuiteDef* FindSuite(const std::string& label) {
  for (const SuiteDef& def : SuiteRegistry()) {
    if (def.label == label) return &def;
  }
  return nullptr;
}

std::vector<std::string> SuiteLabels() {
  std::vector<std::string> labels;
  for (const SuiteDef& def : SuiteRegistry()) labels.push_back(def.label);
  return labels;
}

StatusOr<std::string> RunSuite(const SuiteDef& def, const SweepOptions& sweep,
                               const OutputOptions& output) {
  if (output.print_tables) {
    std::printf("== %s: %lld rep(s) per point, %d thread(s), scale=%s ==\n",
                def.label.c_str(), static_cast<long long>(sweep.reps),
                SweepRunner(sweep).threads(),
                sweep.paper_scale ? "paper" : "laptop");
  }
  if (def.run) {
    return def.run(sweep, output);
  }
  SweepRunner runner(sweep);
  LTC_ASSIGN_OR_RETURN(SuiteResult result, runner.Run(def.make(sweep.paper_scale)));
  LTC_RETURN_IF_ERROR(WriteSuiteReport(result, output));
  if (output.print_tables) {
    std::printf("%s done in %.1fs\n", def.label.c_str(), result.wall_seconds);
  }
  return SuiteResultJson(result);
}

}  // namespace exp
}  // namespace ltc
