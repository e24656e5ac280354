// Test oracle: per-task completion statistics of an arrangement, computed by
// an independent replay (tests check its max against
// Arrangement::MaxWorkerIndex).
//
// The paper's objective is the *maximum* completion index (MinMax); an
// obvious extension — and a natural future-work axis the paper gestures at —
// is the distribution of per-task completion latencies (average/median/p95),
// which this module computes for any completed or partial arrangement.

#ifndef LTC_ORACLES_ARRANGEMENT_STATS_H_
#define LTC_ORACLES_ARRANGEMENT_STATS_H_

#include <cstdint>
#include <vector>

#include "common/status.h"
#include "model/arrangement.h"
#include "model/problem.h"

namespace ltc {
namespace sim {

/// Distribution of per-task completion indices.
struct ArrangementStats {
  /// Tasks that reached delta.
  std::int64_t completed_tasks = 0;
  std::int64_t total_tasks = 0;
  /// Completion index of each completed task (the paper's L_t =
  /// max_{w in W_t'} o_w over the minimal prefix of assignments reaching
  /// delta), unsorted.
  std::vector<std::int64_t> completion_index;
  /// Summary over completion_index (0 when no task completed).
  double mean = 0.0;
  std::int64_t median = 0;
  std::int64_t p95 = 0;
  std::int64_t max = 0;
  /// Total assignments that landed on already-completed tasks (pure waste;
  /// nonzero for the naive Random baseline).
  std::int64_t wasted_assignments = 0;
};

/// Replays the arrangement's assignments in recorded order and extracts the
/// per-task completion indices. Assignment order must be the commit order
/// (true for every scheduler in this library).
StatusOr<ArrangementStats> ComputeArrangementStats(
    const model::ProblemInstance& instance,
    const model::Arrangement& arrangement);

}  // namespace sim
}  // namespace ltc

#endif  // LTC_ORACLES_ARRANGEMENT_STATS_H_
