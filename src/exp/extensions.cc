#include "exp/extensions.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <vector>

#include "algo/lower_bound.h"
#include "algo/registry.h"
#include "common/string_util.h"
#include "common/table.h"
#include "exp/figures.h"
#include "model/truth_inference.h"
#include "model/voting.h"
#include "sim/presets.h"

namespace ltc {
namespace exp {

namespace {

/// Shared workload of the truth/error-rate suites: the Table IV defaults at
/// |T| = 1000, |W| = 20000 (paper scale) with the case's epsilon.
std::vector<SuiteCase> EpsilonExtensionCases(bool paper_scale) {
  std::vector<SuiteCase> cases;
  for (double epsilon : sim::TableFourEpsilonLevels()) {
    cases.push_back(SuiteCase{
        StrFormat("%.2f", epsilon), [epsilon, paper_scale](std::uint64_t seed) {
          gen::SyntheticConfig cfg = BaseSyntheticConfig(paper_scale);
          const double s = SuiteScale(paper_scale);
          cfg.num_tasks = ScaledCount(1000, s);
          cfg.num_workers = ScaledCount(20000, s);
          cfg.epsilon = epsilon;
          cfg.seed = seed;
          return gen::GenerateSynthetic(cfg);
        }});
  }
  return cases;
}

/// Completes the instance with AAM (the suites measure aggregation quality
/// on a completed workload, not the scheduler) and returns its arrangement.
StatusOr<model::Arrangement> CompleteWithAam(
    const model::ProblemInstance& instance,
    const model::EligibilityIndex& index, std::uint64_t seed) {
  LTC_ASSIGN_OR_RETURN(auto scheduler,
                       algo::MakeOnlineScheduler("AAM", seed));
  LTC_RETURN_IF_ERROR(
      algo::DriveOnline(instance, index, scheduler.get()).status());
  return scheduler->arrangement();
}

}  // namespace

StatusOr<std::string> RunTruthSuite(const SweepOptions& sweep,
                                    const OutputOptions& output) {
  struct Cell {
    double majority = 0;
    double weighted = 0;
    double em = 0;
    double em_iters = 0;
  };
  SweepRunner runner(sweep);
  std::vector<SuiteCase> cases;
  const std::vector<SuiteCase> all_cases =
      EpsilonExtensionCases(sweep.paper_scale);
  // Preallocate for the unfiltered worst case; ForEachInstance reports the
  // filtered list through `cases`, whose indices address `cells`.
  std::vector<Cell> cells(all_cases.size() *
                          static_cast<std::size_t>(sweep.reps));
  const auto reps = static_cast<std::size_t>(sweep.reps);
  LTC_RETURN_IF_ERROR(runner.ForEachInstance(
      all_cases,
      [&cells, reps](std::size_t case_index, std::int64_t rep,
                     std::uint64_t seed,
                     const model::ProblemInstance& instance,
                     const model::EligibilityIndex& index) -> Status {
        LTC_ASSIGN_OR_RETURN(model::Arrangement arrangement,
                             CompleteWithAam(instance, index, seed));
        LTC_ASSIGN_OR_RETURN(
            auto answers,
            model::SimulateAnswers(instance, arrangement, seed + 7));
        LTC_ASSIGN_OR_RETURN(auto majority,
                             model::MajorityVote(instance, answers));
        LTC_ASSIGN_OR_RETURN(auto weighted,
                             model::WeightedVote(instance, answers));
        LTC_ASSIGN_OR_RETURN(auto em,
                             model::EmTruthInference(instance, answers));
        Cell& cell =
            cells[case_index * reps + static_cast<std::size_t>(rep)];
        cell.majority = majority.error_rate;
        cell.weighted = weighted.error_rate;
        cell.em = em.error_rate;
        cell.em_iters = static_cast<double>(em.iterations);
        return Status::OK();
      },
      &cases));

  TablePrinter table({"eps", "majority", "weighted(paper)", "EM", "EM iters"});
  for (std::size_t c = 0; c < cases.size(); ++c) {
    Cell sum;
    for (std::size_t r = 0; r < reps; ++r) {
      const Cell& cell = cells[c * reps + r];
      sum.majority += cell.majority;
      sum.weighted += cell.weighted;
      sum.em += cell.em;
      sum.em_iters += cell.em_iters;
    }
    const auto n = static_cast<double>(reps);
    table.AddRow({cases[c].label, StrFormat("%.5f", sum.majority / n),
                  StrFormat("%.5f", sum.weighted / n),
                  StrFormat("%.5f", sum.em / n),
                  StrFormat("%.1f", sum.em_iters / n)});
  }
  if (output.print_tables) {
    std::printf(
        "\n-- truth inference: per-task error rate by aggregation method "
        "--\n%s",
        table.Render().c_str());
  }
  LTC_RETURN_IF_ERROR(table.WriteCsv(output.out_dir + "/truth_methods.csv"));
  return std::string();
}

StatusOr<std::string> RunErrorRateSuite(const SweepOptions& sweep,
                                        const OutputOptions& output) {
  struct Cell {
    double epsilon = 0;
    double error = 0;
    double worst = 0;
  };
  SweepRunner runner(sweep);
  std::vector<SuiteCase> cases;
  const std::vector<SuiteCase> all_cases =
      EpsilonExtensionCases(sweep.paper_scale);
  std::vector<Cell> cells(all_cases.size() *
                          static_cast<std::size_t>(sweep.reps));
  const auto reps = static_cast<std::size_t>(sweep.reps);
  const std::int64_t trials = sweep.trials;
  LTC_RETURN_IF_ERROR(runner.ForEachInstance(
      all_cases,
      [&cells, reps, trials](std::size_t case_index, std::int64_t rep,
                             std::uint64_t seed,
                             const model::ProblemInstance& instance,
                             const model::EligibilityIndex& index) -> Status {
        LTC_ASSIGN_OR_RETURN(model::Arrangement arrangement,
                             CompleteWithAam(instance, index, seed));
        LTC_ASSIGN_OR_RETURN(
            auto outcome,
            model::SimulateVoting(instance, arrangement, trials, seed + 1));
        Cell& cell =
            cells[case_index * reps + static_cast<std::size_t>(rep)];
        cell.epsilon = instance.epsilon;
        cell.error = outcome.empirical_error_rate;
        cell.worst = outcome.max_task_error_rate;
        return Status::OK();
      },
      &cases));

  TablePrinter table(
      {"eps", "delta", "empirical error", "worst task", "bound holds"});
  for (std::size_t c = 0; c < cases.size(); ++c) {
    double error_sum = 0;
    double worst = 0;
    for (std::size_t r = 0; r < reps; ++r) {
      error_sum += cells[c * reps + r].error;
      worst = std::max(worst, cells[c * reps + r].worst);
    }
    const double epsilon = cells[c * reps].epsilon;
    table.AddRow({cases[c].label,
                  StrFormat("%.3f", 2.0 * std::log(1.0 / epsilon)),
                  StrFormat("%.5f", error_sum / static_cast<double>(reps)),
                  StrFormat("%.5f", worst), worst < epsilon ? "yes" : "NO"});
  }
  if (output.print_tables) {
    std::printf("\n-- error-rate validation (Hoeffding bound) --\n%s",
                table.Render().c_str());
  }
  LTC_RETURN_IF_ERROR(
      table.WriteCsv(output.out_dir + "/error_rate_validation.csv"));
  return std::string();
}

StatusOr<std::string> RunLowerBoundSuite(const SweepOptions& sweep,
                                         const OutputOptions& output) {
  SweepRunner runner(sweep);
  LTC_ASSIGN_OR_RETURN(std::vector<SuiteAlgo> roster,
                       runner.FilterAlgorithms(StandardRoster()));

  std::vector<SuiteCase> all_cases;
  for (std::int64_t paper_tasks : sim::TableFourTaskLevels()) {
    const std::int64_t tasks =
        ScaledCount(paper_tasks, SuiteScale(sweep.paper_scale));
    const bool paper_scale = sweep.paper_scale;
    all_cases.push_back(SuiteCase{
        StrFormat("%lld", static_cast<long long>(paper_tasks)),
        [tasks, paper_scale](std::uint64_t seed) {
          gen::SyntheticConfig cfg = BaseSyntheticConfig(paper_scale);
          cfg.num_tasks = tasks;
          cfg.seed = seed;
          return gen::GenerateSynthetic(cfg);
        }});
  }

  struct Cell {
    double supply = 0;
    double work = 0;
    std::vector<double> gaps;  // roster order
  };
  std::vector<SuiteCase> cases;
  const auto reps = static_cast<std::size_t>(sweep.reps);
  std::vector<Cell> cells(all_cases.size() * reps);
  const bool validate = sweep.validate;
  LTC_RETURN_IF_ERROR(runner.ForEachInstance(
      all_cases,
      [&cells, &roster, reps, validate](
          std::size_t case_index, std::int64_t rep, std::uint64_t seed,
          const model::ProblemInstance& instance,
          const model::EligibilityIndex& index) -> Status {
        LTC_ASSIGN_OR_RETURN(auto bound,
                             algo::ComputeLowerBound(instance, index));
        Cell& cell =
            cells[case_index * reps + static_cast<std::size_t>(rep)];
        cell.supply = static_cast<double>(bound.supply_bound);
        cell.work = static_cast<double>(bound.work_bound);
        cell.gaps.assign(roster.size(), 0.0);
        for (std::size_t a = 0; a < roster.size(); ++a) {
          sim::EngineOptions engine_options;
          engine_options.seed = seed;
          engine_options.validate = validate;
          LTC_ASSIGN_OR_RETURN(
              sim::RunMetrics metrics,
              sim::RunAlgorithm(roster[a].name, instance, index,
                                engine_options));
          if (metrics.completed && bound.combined > 0) {
            cell.gaps[a] = static_cast<double>(metrics.latency) /
                           static_cast<double>(bound.combined);
          }
        }
        return Status::OK();
      },
      &cases));

  std::vector<std::string> header = {"|T|", "supplyLB", "workLB"};
  for (const SuiteAlgo& algorithm : roster) {
    header.push_back(algorithm.name + " gap");
  }
  TablePrinter table(header);
  for (std::size_t c = 0; c < cases.size(); ++c) {
    double supply_sum = 0;
    double work_sum = 0;
    std::vector<double> gap_sums(roster.size(), 0.0);
    for (std::size_t r = 0; r < reps; ++r) {
      const Cell& cell = cells[c * reps + r];
      supply_sum += cell.supply;
      work_sum += cell.work;
      for (std::size_t a = 0; a < roster.size(); ++a) {
        gap_sums[a] += cell.gaps[a];
      }
    }
    const auto n = static_cast<double>(reps);
    std::vector<std::string> row = {cases[c].label,
                                    StrFormat("%.1f", supply_sum / n),
                                    StrFormat("%.1f", work_sum / n)};
    for (double gap_sum : gap_sums) {
      row.push_back(StrFormat("%.2f", gap_sum / n));
    }
    table.AddRow(row);
  }
  if (output.print_tables) {
    std::printf("\n-- gap to the instance lower bound (latency / LB) --\n%s",
                table.Render().c_str());
  }
  LTC_RETURN_IF_ERROR(
      table.WriteCsv(output.out_dir + "/lower_bound_gaps.csv"));
  return std::string();
}

}  // namespace exp
}  // namespace ltc
