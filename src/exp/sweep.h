// The experiment subsystem's core: SweepRunner expands a declarative Suite —
// cases (x-axis points) × algorithms × repetitions — into independent cells,
// runs them on a common::ThreadPool, and aggregates per-(case, algorithm)
// metrics in deterministic order.
//
// Cell model (DESIGN.md §7):
//   * an *instance slot* is one (case, rep) pair: the problem instance and
//     its eligibility index are generated exactly once per slot and shared
//     read-only by every algorithm cell of that slot, across threads;
//   * a *cell* is one (case, algorithm, rep) triple: one measured run,
//     writing its RunMetrics into a preallocated slot addressed by indices.
//
// Determinism contract: cell seeds depend only on (base seed, rep); results
// land in index-addressed slots; aggregation folds reps in index order. So
// every schedule-dependent output (latency, completion, solver stats, their
// means) is bit-identical for any --threads value — only the measured
// runtime/memory fields vary between runs.

#ifndef LTC_EXP_SWEEP_H_
#define LTC_EXP_SWEEP_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/status.h"
#include "model/eligibility.h"
#include "model/problem.h"
#include "sim/engine.h"
#include "sim/metrics.h"

namespace ltc {
namespace exp {

/// Seed for repetition `rep` of a sweep with base seed `base`. Same spacing
/// the pre-exp bench harness used (base + rep * 7919), keeping checked-in
/// BENCH_*.json baselines comparable across the refactor.
std::uint64_t RepSeed(std::uint64_t base, std::int64_t rep);

/// One x-axis point: a label (as printed on the axis) and an instance
/// factory. Factories must be pure — same seed, same instance, no shared
/// mutable state — because slots generate concurrently.
struct SuiteCase {
  std::string label;
  std::function<StatusOr<model::ProblemInstance>(std::uint64_t seed)> make;
};

/// One roster column. When `run` is empty the algorithm is dispatched by
/// name through sim::RunAlgorithm; custom runners (ablation variants) must
/// construct their scheduler per call — cells of the same algorithm run
/// concurrently.
struct SuiteAlgo {
  std::string name;
  std::function<StatusOr<sim::RunMetrics>(const model::ProblemInstance&,
                                          const model::EligibilityIndex&,
                                          const sim::EngineOptions&)>
      run;
};

/// The paper's standard roster as name-dispatched SuiteAlgos.
std::vector<SuiteAlgo> StandardRoster();
/// Name-dispatched SuiteAlgos for an explicit name list.
std::vector<SuiteAlgo> NamedRoster(const std::vector<std::string>& names);

/// A declarative sweep: the unit bench_suite runs by label.
struct Suite {
  std::string name;    // output/file stem, e.g. "fig3_tasks"
  std::string factor;  // x-axis name as printed, e.g. "|T|"
  std::vector<SuiteCase> cases;
  std::vector<SuiteAlgo> algorithms;
};

/// Execution options, resolved from the bench_suite flags.
struct SweepOptions {
  std::int64_t reps = 3;
  std::uint64_t seed = 1;
  /// Worker threads; 0 resolves to the hardware concurrency.
  int threads = 1;
  /// Echoed into the JSON summary (the factories already encode the scale).
  bool paper_scale = false;
  std::vector<std::string> skip;         // algorithm names to drop
  std::vector<std::string> case_filter;  // case labels to keep (empty = all)
  /// Forwarded to EngineOptions: post-run arrangement validation.
  bool validate = true;
  /// Extension-suite knob (error_rate): voting trials per task and rep.
  std::int64_t trials = 2000;
};

/// Aggregated + per-rep metrics of one algorithm on one case.
struct AlgoResult {
  std::string name;
  /// One entry per repetition, in rep order.
  std::vector<sim::RunMetrics> reps;
  /// Finalized aggregate over `reps`.
  sim::AggregateMetrics aggregate;
};

struct CaseResult {
  std::string label;
  std::vector<AlgoResult> algorithms;
};

/// Everything a report needs about one completed sweep.
struct SuiteResult {
  std::string suite;
  std::string factor;
  bool paper_scale = false;
  std::int64_t reps = 0;
  std::uint64_t seed = 0;
  int threads = 1;
  std::vector<CaseResult> cases;
  /// Harness wall-clock for the whole sweep (not part of the JSON cases).
  double wall_seconds = 0.0;
};

/// \brief Thread-pooled executor for Suites and custom instance sweeps.
class SweepRunner {
 public:
  explicit SweepRunner(const SweepOptions& options);

  /// Runs every (case × algorithm × rep) cell of `suite` under the options'
  /// skip/case filters and returns the aggregated result. The first cell or
  /// generation error (in deterministic case/algo/rep order) aborts the
  /// sweep's result.
  StatusOr<SuiteResult> Run(const Suite& suite) const;

  /// Lower-level hook for custom experiments (truth inference, error-rate
  /// validation, lower-bound gaps): generates each (case, rep) instance and
  /// eligibility index exactly once and invokes
  /// `fn(case_index, rep, seed, instance, index)` for every pair, possibly
  /// concurrently. `fn` must confine writes to per-(case, rep) state it
  /// owns; case_index refers to the *filtered* case list, which is also
  /// what `filtered_out` (optional) receives.
  using InstanceFn = std::function<Status(
      std::size_t case_index, std::int64_t rep, std::uint64_t seed,
      const model::ProblemInstance& instance,
      const model::EligibilityIndex& index)>;
  Status ForEachInstance(const std::vector<SuiteCase>& cases,
                         const InstanceFn& fn,
                         std::vector<SuiteCase>* filtered_out = nullptr) const;

  /// Applies --cases; InvalidArgument when nothing remains.
  StatusOr<std::vector<SuiteCase>> FilterCases(
      const std::vector<SuiteCase>& cases) const;
  /// Applies --skip; InvalidArgument when nothing remains.
  StatusOr<std::vector<SuiteAlgo>> FilterAlgorithms(
      const std::vector<SuiteAlgo>& algorithms) const;

  /// Worker-thread count after resolving threads == 0.
  int threads() const;

 private:
  SweepOptions options_;
};

}  // namespace exp
}  // namespace ltc

#endif  // LTC_EXP_SWEEP_H_
