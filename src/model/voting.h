// Weighted-majority-voting simulation (paper Definition 4).
//
// Given a completed arrangement, simulate worker answers — worker w answers
// task t correctly with probability Acc(w,t) — and aggregate with weights
// 2 Acc - 1. The Hoeffding bound behind delta = 2 ln(1/eps) promises a
// per-task error probability below eps; `bench_suite --figure=error_rate`
// uses this module to verify that promise empirically.

#ifndef LTC_MODEL_VOTING_H_
#define LTC_MODEL_VOTING_H_

#include <cstdint>
#include <vector>

#include "common/random.h"
#include "common/status.h"
#include "model/arrangement.h"
#include "model/problem.h"

namespace ltc {
namespace model {

/// Outcome of a voting simulation.
struct VotingOutcome {
  /// Trials run per task.
  std::int64_t trials = 0;
  /// Tasks simulated (tasks with no assigned workers are skipped).
  std::int64_t tasks = 0;
  /// Total task-trials whose majority vote disagreed with the truth.
  std::int64_t errors = 0;
  /// errors / (tasks * trials).
  double empirical_error_rate = 0.0;
  /// Worst per-task error rate observed.
  double max_task_error_rate = 0.0;
};

/// \brief Runs `trials` independent voting rounds over every task that has at
/// least one assignment, with ground truth fixed to +1 (symmetry makes the
/// choice irrelevant).
StatusOr<VotingOutcome> SimulateVoting(const ProblemInstance& instance,
                                       const Arrangement& arrangement,
                                       std::int64_t trials, std::uint64_t seed);

}  // namespace model
}  // namespace ltc

#endif  // LTC_MODEL_VOTING_H_
