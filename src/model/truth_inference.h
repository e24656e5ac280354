// Truth inference over crowd answers.
//
// The paper aggregates answers by accuracy-weighted majority voting
// (Definition 4) and cites truth inference [18] as the standard alternative
// for quality control (Sec. VI-A). This module implements the full ladder so
// the two can be compared empirically (`bench_suite --figure=truth`):
//
//   * MajorityVote      — unweighted sign of the answer sum;
//   * WeightedVote      — the paper's 2·Acc-1 weighting (known accuracies);
//   * EmTruthInference  — Dawid-Skene-style EM for *unknown* worker
//                         accuracies: alternates task-truth posteriors and
//                         per-worker accuracy estimates.
//
// Answers are produced by SimulateAnswers from a completed arrangement: the
// generative model matches Definition 3 (worker w answers task t correctly
// with probability Acc(w,t)).

#ifndef LTC_MODEL_TRUTH_INFERENCE_H_
#define LTC_MODEL_TRUTH_INFERENCE_H_

#include <cstdint>
#include <vector>

#include "common/random.h"
#include "common/status.h"
#include "model/arrangement.h"
#include "model/problem.h"

namespace ltc {
namespace model {

/// One binary answer (+1 / -1) of a worker on a task.
struct Answer {
  WorkerIndex worker = 0;
  TaskId task = 0;
  std::int8_t value = 0;  // +1 or -1
};

/// A batch of simulated answers plus the planted ground truth.
struct AnswerSet {
  std::vector<Answer> answers;
  /// Planted truth per task (+1/-1); tasks with no answers keep 0.
  std::vector<std::int8_t> truth;
};

/// Samples one answer per assignment: correct with probability Acc(w,t).
/// Truth per task is sampled uniformly from {+1, -1}.
StatusOr<AnswerSet> SimulateAnswers(const ProblemInstance& instance,
                                    const Arrangement& arrangement,
                                    std::uint64_t seed);

/// Result of an aggregation method.
struct InferenceResult {
  /// Estimated truth per task (+1/-1; 0 = no evidence).
  std::vector<std::int8_t> estimate;
  /// Fraction of answered tasks whose estimate disagrees with the truth.
  double error_rate = 0.0;
  /// EM only: estimated accuracy per worker index (1-based; 0 = unseen).
  std::vector<double> worker_accuracy;
  /// EM only: iterations until convergence.
  std::int32_t iterations = 0;
};

/// Unweighted majority voting (ties resolve to +1).
StatusOr<InferenceResult> MajorityVote(const ProblemInstance& instance,
                                       const AnswerSet& answers);

/// The paper's weighted voting: weight(w,t) = 2·Acc(w,t) - 1 with the true
/// model accuracies.
StatusOr<InferenceResult> WeightedVote(const ProblemInstance& instance,
                                       const AnswerSet& answers);

/// Options for the EM-based inference.
struct EmOptions {
  std::int32_t max_iterations = 50;
  /// Convergence threshold on the max accuracy-estimate change.
  double tolerance = 1e-6;
  /// Initial worker accuracy (uninformed prior).
  double initial_accuracy = 0.8;
  /// Laplace smoothing mass on accuracy estimates, keeping them in (0.5, 1)
  /// territory and the log-odds finite.
  double smoothing = 1.0;
};

/// Dawid-Skene-style EM with a single accuracy parameter per worker
/// (symmetric binary confusion). Does not look at the model accuracies.
StatusOr<InferenceResult> EmTruthInference(const ProblemInstance& instance,
                                           const AnswerSet& answers,
                                           const EmOptions& options = {});

}  // namespace model
}  // namespace ltc

#endif  // LTC_MODEL_TRUTH_INFERENCE_H_
