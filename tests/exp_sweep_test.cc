// Tests for the exp experiment subsystem: SweepRunner's determinism
// contract (--threads=1 and --threads=N produce identical
// schedule-dependent output), the generate-once instance sharing, filter
// semantics, and the suite registry's coverage of the paper figure index.

#include "exp/sweep.h"

#include <gtest/gtest.h>

#include <atomic>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "exp/figures.h"
#include "exp/report.h"
#include "gen/synthetic.h"
#include "oracles/paper_tables.h"

namespace ltc {
namespace exp {
namespace {

gen::SyntheticConfig TinyConfig(std::int64_t tasks, std::uint64_t seed) {
  gen::SyntheticConfig cfg;
  cfg.num_tasks = tasks;
  cfg.num_workers = 800;
  cfg.grid_side = 100.0;
  cfg.seed = seed;
  return cfg;
}

/// A fast two-case suite over the online roster; `factory_calls` (optional)
/// counts instance generations.
Suite TinySuite(std::atomic<int>* factory_calls = nullptr) {
  Suite suite{"tiny", "|T|", {}, NamedRoster({"LAF", "Random"})};
  for (std::int64_t tasks : {8, 12}) {
    suite.cases.push_back(SuiteCase{
        std::to_string(tasks), [tasks, factory_calls](std::uint64_t seed) {
          if (factory_calls != nullptr) {
            factory_calls->fetch_add(1, std::memory_order_relaxed);
          }
          return gen::GenerateSynthetic(TinyConfig(tasks, seed));
        }});
  }
  return suite;
}

TEST(SweepRunnerTest, RepSeedMatchesLegacyHarnessSpacing) {
  EXPECT_EQ(RepSeed(1, 0), 1u);
  EXPECT_EQ(RepSeed(1, 2), 1u + 2u * 7919u);
  EXPECT_EQ(RepSeed(42, 3), 42u + 3u * 7919u);
}

TEST(SweepRunnerTest, DeterministicAcrossThreadCounts) {
  SweepOptions options;
  options.reps = 2;
  options.threads = 1;
  SweepRunner serial(options);
  options.threads = 4;
  SweepRunner pooled(options);

  auto serial_result = serial.Run(TinySuite());
  auto pooled_result = pooled.Run(TinySuite());
  ASSERT_TRUE(serial_result.ok()) << serial_result.status();
  ASSERT_TRUE(pooled_result.ok()) << pooled_result.status();

  // The full JSON summary — modulo the runtime/memory timing fields —
  // must be byte-identical.
  EXPECT_EQ(SuiteResultJson(*serial_result, /*include_timing=*/false),
            SuiteResultJson(*pooled_result, /*include_timing=*/false));

  // And so must every per-rep schedule-dependent metric.
  ASSERT_EQ(serial_result->cases.size(), pooled_result->cases.size());
  for (std::size_t c = 0; c < serial_result->cases.size(); ++c) {
    const CaseResult& a = serial_result->cases[c];
    const CaseResult& b = pooled_result->cases[c];
    ASSERT_EQ(a.algorithms.size(), b.algorithms.size());
    for (std::size_t i = 0; i < a.algorithms.size(); ++i) {
      ASSERT_EQ(a.algorithms[i].reps.size(), b.algorithms[i].reps.size());
      for (std::size_t r = 0; r < a.algorithms[i].reps.size(); ++r) {
        EXPECT_EQ(a.algorithms[i].reps[r].latency,
                  b.algorithms[i].reps[r].latency);
        EXPECT_EQ(a.algorithms[i].reps[r].completed,
                  b.algorithms[i].reps[r].completed);
        EXPECT_EQ(a.algorithms[i].reps[r].stats.assignments,
                  b.algorithms[i].reps[r].stats.assignments);
      }
    }
  }
}

TEST(SweepRunnerTest, GeneratesEachInstanceOncePerCaseAndRep) {
  std::atomic<int> factory_calls{0};
  SweepOptions options;
  options.reps = 3;
  options.threads = 4;
  auto result = SweepRunner(options).Run(TinySuite(&factory_calls));
  ASSERT_TRUE(result.ok()) << result.status();
  // 2 cases x 3 reps, shared by both algorithms: 6 generations, not 12.
  EXPECT_EQ(factory_calls.load(), 6);
}

TEST(SweepRunnerTest, CaseFilterSelectsAndRejects) {
  SweepOptions options;
  options.reps = 1;
  options.case_filter = {"12"};
  auto result = SweepRunner(options).Run(TinySuite());
  ASSERT_TRUE(result.ok()) << result.status();
  ASSERT_EQ(result->cases.size(), 1u);
  EXPECT_EQ(result->cases.front().label, "12");

  options.case_filter = {"no-such-label"};
  auto missing = SweepRunner(options).Run(TinySuite());
  ASSERT_FALSE(missing.ok());
  EXPECT_TRUE(missing.status().IsInvalidArgument());
}

TEST(SweepRunnerTest, SkipAllAlgorithmsIsAnError) {
  SweepOptions options;
  options.reps = 1;
  options.skip = {"LAF", "Random"};
  auto result = SweepRunner(options).Run(TinySuite());
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsInvalidArgument());
}

TEST(SweepRunnerTest, FactoryErrorSurfacesWithCellContext) {
  Suite suite{"bad", "x", {}, NamedRoster({"LAF"})};
  suite.cases.push_back(SuiteCase{"boom", [](std::uint64_t) {
                                    return StatusOr<model::ProblemInstance>(
                                        Status::InvalidArgument("bad case"));
                                  }});
  SweepOptions options;
  options.reps = 2;
  options.threads = 2;
  auto result = SweepRunner(options).Run(suite);
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.status().message().find("boom"), std::string::npos);
}

TEST(SweepRunnerTest, ThrowingFactoryPoisonsItsCellsAsStatus) {
  Suite suite{"throwing", "x", {}, NamedRoster({"LAF"})};
  suite.cases.push_back(
      SuiteCase{"boom", [](std::uint64_t) -> StatusOr<model::ProblemInstance> {
        throw std::runtime_error("kaboom");
      }});
  SweepOptions options;
  options.reps = 2;
  options.threads = 2;
  auto result = SweepRunner(options).Run(suite);
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsInternal());
  EXPECT_NE(result.status().message().find("kaboom"), std::string::npos);
}

TEST(SweepRunnerTest, CustomAlgorithmRunnerIsInvoked) {
  Suite suite = TinySuite();
  suite.algorithms = {SuiteAlgo{
      "synthetic", [](const model::ProblemInstance&,
                      const model::EligibilityIndex&,
                      const sim::EngineOptions& engine_options) {
        sim::RunMetrics metrics;
        metrics.algorithm = "synthetic";
        metrics.latency = static_cast<std::int64_t>(engine_options.seed % 100);
        metrics.completed = true;
        return StatusOr<sim::RunMetrics>(std::move(metrics));
      }}};
  SweepOptions options;
  options.reps = 2;
  options.seed = 5;
  options.threads = 3;
  auto result = SweepRunner(options).Run(suite);
  ASSERT_TRUE(result.ok()) << result.status();
  // rep 0 seed = 5, rep 1 seed = 5 + 7919 -> 24 mod 100.
  const AlgoResult& algo = result->cases.front().algorithms.front();
  ASSERT_EQ(algo.reps.size(), 2u);
  EXPECT_EQ(algo.reps[0].latency, 5);
  EXPECT_EQ(algo.reps[1].latency, (5 + 7919) % 100);
  EXPECT_EQ(algo.aggregate.completed_runs, 2);
}

TEST(SweepRunnerTest, ForEachInstanceVisitsEveryCellOnce) {
  Suite suite = TinySuite();
  SweepOptions options;
  options.reps = 3;
  options.threads = 4;
  SweepRunner runner(options);
  std::vector<int> visits(2 * 3, 0);  // unique slot per (case, rep)
  std::vector<SuiteCase> filtered;
  Status status = runner.ForEachInstance(
      suite.cases,
      [&visits](std::size_t case_index, std::int64_t rep, std::uint64_t seed,
                const model::ProblemInstance& instance,
                const model::EligibilityIndex&) -> Status {
        EXPECT_GT(instance.num_workers(), 0);
        EXPECT_EQ(seed, RepSeed(1, rep));
        ++visits[case_index * 3 + static_cast<std::size_t>(rep)];
        return Status::OK();
      },
      &filtered);
  ASSERT_TRUE(status.ok()) << status;
  ASSERT_EQ(filtered.size(), 2u);
  for (int visit : visits) EXPECT_EQ(visit, 1);
}

TEST(SuiteRegistryTest, LabelsAreUniqueAndFindable) {
  std::set<std::string> seen;
  for (const SuiteDef& def : SuiteRegistry()) {
    EXPECT_TRUE(seen.insert(def.label).second) << def.label;
    EXPECT_EQ(FindSuite(def.label), &def);
    // Exactly one execution path per suite.
    EXPECT_NE(def.make == nullptr, def.run == nullptr) << def.label;
  }
  EXPECT_EQ(FindSuite("no-such-suite"), nullptr);
}

TEST(SuiteRegistryTest, CoversPaperFigureIndex) {
  for (const sim::FigureSpec& spec : sim::PaperFigureIndex()) {
    const std::string& label = spec.suite_label;
    const SuiteDef* def = FindSuite(label);
    ASSERT_NE(def, nullptr) << label;
    EXPECT_EQ(def->paper_figures, spec.paper_figures);
    ASSERT_NE(def->make, nullptr) << label;
    const Suite suite = def->make(/*paper_scale=*/false);
    EXPECT_EQ(suite.name, label);
    EXPECT_EQ(suite.factor, spec.factor);
    ASSERT_EQ(suite.cases.size(), spec.levels.size()) << label;
    for (std::size_t i = 0; i < suite.cases.size(); ++i) {
      EXPECT_EQ(suite.cases[i].label, spec.levels[i]) << label;
    }
    EXPECT_FALSE(suite.algorithms.empty());
  }
}

}  // namespace
}  // namespace exp
}  // namespace ltc
