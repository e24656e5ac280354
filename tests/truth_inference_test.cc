// Tests for answer simulation and the truth-inference ladder
// (majority / weighted / EM).

#include "model/truth_inference.h"

#include <gtest/gtest.h>

#include <memory>

#include "algo/registry.h"
#include "gen/example_paper.h"
#include "gen/synthetic.h"
#include "model/eligibility.h"

namespace ltc {
namespace model {
namespace {

struct Built {
  ProblemInstance instance;
  std::unique_ptr<EligibilityIndex> index;
  Arrangement arrangement{0, 0.0};
};

/// Completes a synthetic workload with LAF and returns it with the
/// arrangement.
Built CompletedWorkload(std::uint64_t seed) {
  gen::SyntheticConfig cfg;
  cfg.num_tasks = 30;
  cfg.num_workers = 3000;
  cfg.grid_side = 170.0;
  cfg.epsilon = 0.1;
  cfg.seed = seed;
  auto instance = gen::GenerateSynthetic(cfg);
  instance.status().CheckOK();
  Built b{std::move(instance).value(), nullptr, Arrangement{0, 0.0}};
  auto index = EligibilityIndex::Build(&b.instance);
  index.status().CheckOK();
  b.index = std::make_unique<EligibilityIndex>(std::move(index).value());
  auto scheduler = algo::MakeOnlineScheduler("LAF", seed);
  scheduler.status().CheckOK();
  algo::DriveOnline(b.instance, *b.index, scheduler->get()).status().CheckOK();
  b.arrangement = (*scheduler)->arrangement();
  return b;
}

TEST(SimulateAnswersTest, OneAnswerPerAssignmentAndValidValues) {
  Built b = CompletedWorkload(3);
  auto set = SimulateAnswers(b.instance, b.arrangement, 17);
  ASSERT_TRUE(set.ok());
  EXPECT_EQ(set->answers.size(), b.arrangement.assignments().size());
  for (const Answer& a : set->answers) {
    EXPECT_TRUE(a.value == 1 || a.value == -1);
  }
  // Every answered task carries a planted truth.
  for (const Answer& a : set->answers) {
    EXPECT_NE(set->truth[static_cast<std::size_t>(a.task)], 0);
  }
}

TEST(SimulateAnswersTest, DeterministicPerSeed) {
  Built b = CompletedWorkload(5);
  auto s1 = SimulateAnswers(b.instance, b.arrangement, 99);
  auto s2 = SimulateAnswers(b.instance, b.arrangement, 99);
  ASSERT_TRUE(s1.ok());
  ASSERT_TRUE(s2.ok());
  ASSERT_EQ(s1->answers.size(), s2->answers.size());
  for (std::size_t i = 0; i < s1->answers.size(); ++i) {
    EXPECT_EQ(s1->answers[i].value, s2->answers[i].value);
  }
}

TEST(SimulateAnswersTest, AnswersMostlyCorrectForAccurateWorkers) {
  Built b = CompletedWorkload(7);
  auto set = SimulateAnswers(b.instance, b.arrangement, 23);
  ASSERT_TRUE(set.ok());
  std::int64_t correct = 0;
  for (const Answer& a : set->answers) {
    if (a.value == set->truth[static_cast<std::size_t>(a.task)]) ++correct;
  }
  const double rate = static_cast<double>(correct) /
                      static_cast<double>(set->answers.size());
  // Workers have Acc >= 0.66 on assigned (eligible) tasks; mean ~0.85.
  EXPECT_GT(rate, 0.7);
}

TEST(InferenceTest, AllMethodsBeatEpsilonOnCompletedWorkload) {
  Built b = CompletedWorkload(11);
  auto set = SimulateAnswers(b.instance, b.arrangement, 31);
  ASSERT_TRUE(set.ok());
  auto majority = MajorityVote(b.instance, *set);
  auto weighted = WeightedVote(b.instance, *set);
  auto em = EmTruthInference(b.instance, *set);
  ASSERT_TRUE(majority.ok());
  ASSERT_TRUE(weighted.ok());
  ASSERT_TRUE(em.ok()) << em.status().ToString();
  // The arrangement satisfies the Hoeffding budget, so the weighted vote
  // must meet epsilon; majority and EM are expected to be close.
  EXPECT_LT(weighted->error_rate, b.instance.epsilon);
  EXPECT_LT(majority->error_rate, 2 * b.instance.epsilon);
  EXPECT_LT(em->error_rate, 2 * b.instance.epsilon);
  EXPECT_GT(em->iterations, 0);
}

TEST(InferenceTest, WeightedVoteUsesAccuracies) {
  // One strong worker (0.95) outvotes three weak ones (0.55) under the
  // paper's weighting, but loses a plain majority.
  ProblemInstance instance;
  instance.epsilon = 0.3;
  instance.capacity = 1;
  instance.acc_min = 0.0;
  auto acc = model::MatrixAccuracy::Create(
      {{0.95}, {0.55}, {0.55}, {0.55}});
  ASSERT_TRUE(acc.ok());
  instance.accuracy = acc.value();
  instance.tasks.push_back(Task{0, {0, 0}});
  for (WorkerIndex w = 1; w <= 4; ++w) {
    Worker worker;
    worker.index = w;
    worker.historical_accuracy = 0.95;
    instance.workers.push_back(worker);
  }
  ASSERT_TRUE(instance.Validate().ok());

  AnswerSet set;
  set.truth = {1};
  set.answers = {
      {1, 0, +1},  // the strong worker is right
      {2, 0, -1},  // the weak majority is wrong
      {3, 0, -1},
      {4, 0, -1},
  };
  auto majority = MajorityVote(instance, set);
  auto weighted = WeightedVote(instance, set);
  ASSERT_TRUE(majority.ok());
  ASSERT_TRUE(weighted.ok());
  EXPECT_EQ(majority->estimate[0], -1);  // fooled
  EXPECT_DOUBLE_EQ(majority->error_rate, 1.0);
  // Weighted: 0.9*(+1) + 3 * 0.1*(-1) = +0.6 -> correct.
  EXPECT_EQ(weighted->estimate[0], 1);
  EXPECT_DOUBLE_EQ(weighted->error_rate, 0.0);
}

TEST(InferenceTest, EmRecoversWorkerAccuracies) {
  // Many tasks answered by a fixed pool with planted accuracies: EM's
  // estimates must correlate with the truth — good workers score higher
  // than bad ones.
  ProblemInstance instance;
  instance.epsilon = 0.1;
  instance.capacity = 100;
  instance.acc_min = 0.0;
  constexpr int kTasks = 120;
  constexpr int kWorkers = 6;
  const double planted[kWorkers] = {0.95, 0.9, 0.85, 0.7, 0.65, 0.6};
  std::vector<std::vector<double>> matrix(
      kWorkers, std::vector<double>(kTasks, 0.0));
  for (int w = 0; w < kWorkers; ++w) {
    for (int t = 0; t < kTasks; ++t) matrix[static_cast<std::size_t>(w)]
        [static_cast<std::size_t>(t)] = planted[w];
  }
  auto acc = model::MatrixAccuracy::Create(matrix);
  ASSERT_TRUE(acc.ok());
  instance.accuracy = acc.value();
  for (TaskId t = 0; t < kTasks; ++t) {
    instance.tasks.push_back(Task{t, {0, 0}});
  }
  for (WorkerIndex w = 1; w <= kWorkers; ++w) {
    Worker worker;
    worker.index = w;
    worker.historical_accuracy = planted[w - 1];
    instance.workers.push_back(worker);
  }
  // capacity=100 < kTasks, so split assignments across two virtual passes is
  // not possible — instead give every worker every task via the arrangement
  // but relax capacity by constructing answers directly.
  Arrangement arrangement(kTasks, instance.Delta());
  for (WorkerIndex w = 1; w <= kWorkers; ++w) {
    for (TaskId t = 0; t < kTasks; ++t) {
      arrangement.Add(w, t, instance.AccStar(w, t));
    }
  }
  auto set = SimulateAnswers(instance, arrangement, 5);
  ASSERT_TRUE(set.ok());
  auto em = EmTruthInference(instance, *set);
  ASSERT_TRUE(em.ok());
  // Inferred accuracy must be monotone-ish in the planted accuracy: compare
  // the best against the worst with margin.
  const auto& est = em->worker_accuracy;
  EXPECT_GT(est[1], est[6] + 0.1)
      << "best worker should look clearly better than worst";
  // And EM should estimate the strong worker's accuracy in the ballpark.
  EXPECT_NEAR(est[1], 0.95, 0.12);
  // Truth recovery should be essentially perfect with 6 answers per task.
  EXPECT_LT(em->error_rate, 0.05);
}

TEST(InferenceTest, RejectsMalformedAnswers) {
  auto instance = gen::PaperExampleInstance(0.2);
  ASSERT_TRUE(instance.ok());
  AnswerSet bad;
  bad.truth = {1, 1};  // wrong size (3 tasks)
  EXPECT_FALSE(MajorityVote(*instance, bad).ok());
  bad.truth = {1, 1, 1};
  bad.answers = {{1, 99, 1}};
  EXPECT_FALSE(WeightedVote(*instance, bad).ok());
  bad.answers = {{1, 0, 3}};
  EXPECT_FALSE(EmTruthInference(*instance, bad).ok());
  EmOptions options;
  options.max_iterations = 0;
  bad.answers = {};
  EXPECT_FALSE(EmTruthInference(*instance, bad, options).ok());
}

}  // namespace
}  // namespace model
}  // namespace ltc
