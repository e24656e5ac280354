#include "exp/sweep.h"

#include <algorithm>
#include <atomic>
#include <memory>
#include <thread>
#include <utility>

#include "algo/registry.h"
#include "common/string_util.h"
#include "common/timer.h"

namespace ltc {
namespace exp {

std::uint64_t RepSeed(std::uint64_t base, std::int64_t rep) {
  return base + static_cast<std::uint64_t>(rep) * 7919;
}

std::vector<SuiteAlgo> NamedRoster(const std::vector<std::string>& names) {
  std::vector<SuiteAlgo> roster;
  roster.reserve(names.size());
  for (const std::string& name : names) {
    roster.push_back(SuiteAlgo{name, nullptr});
  }
  return roster;
}

std::vector<SuiteAlgo> StandardRoster() {
  return NamedRoster(algo::StandardAlgorithms());
}

SweepRunner::SweepRunner(const SweepOptions& options) : options_(options) {}

int SweepRunner::threads() const {
  if (options_.threads > 0) return options_.threads;
  // hardware_concurrency may report 0 on exotic platforms.
  return std::max(1, static_cast<int>(std::thread::hardware_concurrency()));
}

StatusOr<std::vector<SuiteCase>> SweepRunner::FilterCases(
    const std::vector<SuiteCase>& cases) const {
  std::vector<SuiteCase> selected;
  for (const SuiteCase& suite_case : cases) {
    bool keep = options_.case_filter.empty();
    for (const std::string& label : options_.case_filter) {
      keep |= (label == suite_case.label);
    }
    if (keep) selected.push_back(suite_case);
  }
  if (selected.empty()) {
    return Status::InvalidArgument("--cases matched no case label");
  }
  return selected;
}

StatusOr<std::vector<SuiteAlgo>> SweepRunner::FilterAlgorithms(
    const std::vector<SuiteAlgo>& algorithms) const {
  std::vector<SuiteAlgo> roster;
  for (const SuiteAlgo& algorithm : algorithms) {
    bool skipped = false;
    for (const std::string& skip : options_.skip) {
      skipped |= (skip == algorithm.name);
    }
    if (!skipped) roster.push_back(algorithm);
  }
  if (roster.empty()) {
    return Status::InvalidArgument("all algorithms skipped");
  }
  return roster;
}

namespace {

/// One (case, rep) slot's instance and eligibility index. The index points
/// into the instance, so both live behind stable addresses.
struct InstanceSlot {
  std::unique_ptr<model::ProblemInstance> instance;
  std::unique_ptr<model::EligibilityIndex> index;

  Status Generate(const SuiteCase& suite_case, std::uint64_t seed) {
    LTC_ASSIGN_OR_RETURN(model::ProblemInstance generated,
                         suite_case.make(seed));
    instance = std::make_unique<model::ProblemInstance>(std::move(generated));
    LTC_ASSIGN_OR_RETURN(model::EligibilityIndex built,
                         model::EligibilityIndex::Build(instance.get()));
    index = std::make_unique<model::EligibilityIndex>(std::move(built));
    return Status::OK();
  }
};

/// Runs `fn`, turning an exception into an Internal status: one that
/// escaped a std::thread would terminate the process.
template <typename Fn>
Status CatchAll(const char* what, const Fn& fn) {
  try {
    return fn();
  } catch (const std::exception& e) {
    return Status::Internal(std::string(what) + " threw: " + e.what());
  } catch (...) {
    return Status::Internal(std::string(what) + " threw");
  }
}

/// Calls body(i) for every i in [0, n) on up to `threads` threads, the
/// calling one included, each taking the next index from a shared counter;
/// returns once every thread is joined. `body` must not throw.
void ParallelFor(std::size_t n, int threads,
                 const std::function<void(std::size_t)>& body) {
  std::atomic<std::size_t> next{0};
  const auto drain = [&next, n, &body] {
    for (std::size_t i = next++; i < n; i = next++) body(i);
  };
  std::vector<std::thread> helpers;
  const std::size_t width = std::min(n, static_cast<std::size_t>(threads));
  for (std::size_t t = 1; t < width; ++t) {
    try {
      helpers.emplace_back(drain);
    } catch (const std::exception&) {
      break;  // no thread to spare: the threads already started do the rest
    }
  }
  drain();
  for (std::thread& helper : helpers) helper.join();
}

}  // namespace

StatusOr<SuiteResult> SweepRunner::Run(const Suite& suite) const {
  if (options_.reps <= 0) {
    return Status::InvalidArgument("--reps must be positive");
  }
  LTC_ASSIGN_OR_RETURN(std::vector<SuiteCase> cases, FilterCases(suite.cases));
  LTC_ASSIGN_OR_RETURN(std::vector<SuiteAlgo> algorithms,
                       FilterAlgorithms(suite.algorithms));
  const std::size_t num_cases = cases.size();
  const std::size_t num_algos = algorithms.size();
  const auto reps = static_cast<std::size_t>(options_.reps);

  struct Cell {
    sim::RunMetrics metrics;
    Status status;
  };
  // cells[(c * num_algos + a) * reps + r]: preallocated, index-addressed —
  // concurrent slots never touch each other's cells.
  std::vector<Cell> cells(num_cases * num_algos * reps);

  // One task per (case, rep) slot: generate its instance, run the roster on
  // it in order, free it. At most threads() instances are alive at once.
  Stopwatch watch;
  ParallelFor(num_cases * reps, threads(), [&](std::size_t slot_index) {
    const std::size_t c = slot_index / reps;
    const std::size_t r = slot_index % reps;
    const std::uint64_t seed =
        RepSeed(options_.seed, static_cast<std::int64_t>(r));
    InstanceSlot slot;
    const Status generated = CatchAll(
        "instance generation", [&] { return slot.Generate(cases[c], seed); });
    for (std::size_t a = 0; a < num_algos; ++a) {
      Cell& cell = cells[(c * num_algos + a) * reps + r];
      if (!generated.ok()) {
        cell.status = generated;
        continue;
      }
      cell.status = CatchAll("cell", [&]() -> Status {
        sim::EngineOptions engine_options;
        engine_options.seed = seed;
        engine_options.validate = options_.validate;
        const SuiteAlgo& algo = algorithms[a];
        LTC_ASSIGN_OR_RETURN(
            cell.metrics,
            algo.run ? algo.run(*slot.instance, *slot.index, engine_options)
                     : sim::RunAlgorithm(algo.name, *slot.instance,
                                         *slot.index, engine_options));
        return Status::OK();
      });
    }
  });

  // Deterministic fold: scan cells in (case, algorithm, rep) order, failing
  // on the first error, aggregating reps in index order.
  SuiteResult result;
  result.suite = suite.name;
  result.factor = suite.factor;
  result.paper_scale = options_.paper_scale;
  result.reps = options_.reps;
  result.seed = options_.seed;
  result.threads = threads();
  result.cases.reserve(num_cases);
  for (std::size_t c = 0; c < num_cases; ++c) {
    CaseResult case_result;
    case_result.label = cases[c].label;
    case_result.algorithms.reserve(num_algos);
    for (std::size_t a = 0; a < num_algos; ++a) {
      AlgoResult algo_result;
      algo_result.name = algorithms[a].name;
      algo_result.reps.reserve(reps);
      for (std::size_t r = 0; r < reps; ++r) {
        const Cell& cell = cells[(c * num_algos + a) * reps + r];
        if (!cell.status.ok()) {
          return cell.status.WithContext(
              StrFormat("%s: case %s, algorithm %s, rep %lld",
                        suite.name.c_str(), cases[c].label.c_str(),
                        algorithms[a].name.c_str(), static_cast<long long>(r)));
        }
        algo_result.aggregate.Accumulate(cell.metrics);
        algo_result.reps.push_back(cell.metrics);
      }
      algo_result.aggregate.Finalize();
      case_result.algorithms.push_back(std::move(algo_result));
    }
    result.cases.push_back(std::move(case_result));
  }
  result.wall_seconds = watch.ElapsedSeconds();
  return result;
}

Status SweepRunner::ForEachInstance(const std::vector<SuiteCase>& cases_in,
                                    const InstanceFn& fn,
                                    std::vector<SuiteCase>* filtered_out) const {
  if (options_.reps <= 0) {
    return Status::InvalidArgument("--reps must be positive");
  }
  LTC_ASSIGN_OR_RETURN(std::vector<SuiteCase> cases, FilterCases(cases_in));
  if (filtered_out != nullptr) *filtered_out = cases;
  const auto reps = static_cast<std::size_t>(options_.reps);

  std::vector<Status> statuses(cases.size() * reps);
  ParallelFor(statuses.size(), threads(), [&](std::size_t slot_index) {
    const std::size_t c = slot_index / reps;
    const auto r = static_cast<std::int64_t>(slot_index % reps);
    const std::uint64_t seed = RepSeed(options_.seed, r);
    statuses[slot_index] = CatchAll("cell", [&]() -> Status {
      InstanceSlot slot;
      LTC_RETURN_IF_ERROR(slot.Generate(cases[c], seed));
      return fn(c, r, seed, *slot.instance, *slot.index);
    });
  });
  for (std::size_t c = 0; c < cases.size(); ++c) {
    for (std::size_t r = 0; r < reps; ++r) {
      const Status& status = statuses[c * reps + r];
      if (!status.ok()) {
        return status.WithContext(
            StrFormat("case %s, rep %lld", cases[c].label.c_str(),
                      static_cast<long long>(r)));
      }
    }
  }
  return Status::OK();
}

}  // namespace exp
}  // namespace ltc
