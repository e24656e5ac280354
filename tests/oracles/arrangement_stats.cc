#include "oracles/arrangement_stats.h"

#include <algorithm>

#include "model/quality.h"

namespace ltc {
namespace sim {

StatusOr<ArrangementStats> ComputeArrangementStats(
    const model::ProblemInstance& instance,
    const model::Arrangement& arrangement) {
  const double delta = instance.Delta();
  ArrangementStats stats;
  stats.total_tasks = instance.num_tasks();

  std::vector<double> accumulated(
      static_cast<std::size_t>(instance.num_tasks()), 0.0);
  // A task completes at the largest worker index among the prefix of its
  // assignments (in commit order) that first reaches delta.
  std::vector<std::int64_t> running_max(
      static_cast<std::size_t>(instance.num_tasks()), 0);
  std::vector<std::int64_t> completion(
      static_cast<std::size_t>(instance.num_tasks()), 0);
  for (const model::Assignment& a : arrangement.assignments()) {
    if (a.task < 0 || a.task >= instance.num_tasks() || a.worker < 1) {
      return Status::OutOfRange("arrangement references unknown ids");
    }
    const auto ti = static_cast<std::size_t>(a.task);
    if (completion[ti] > 0) {
      ++stats.wasted_assignments;  // answer for an already-completed task
      continue;
    }
    accumulated[ti] += a.acc_star;
    running_max[ti] =
        std::max(running_max[ti], static_cast<std::int64_t>(a.worker));
    if (model::ReachedDelta(accumulated[ti], delta)) {
      completion[ti] = running_max[ti];
    }
  }

  for (std::int64_t c : completion) {
    if (c > 0) {
      ++stats.completed_tasks;
      stats.completion_index.push_back(c);
    }
  }
  if (!stats.completion_index.empty()) {
    std::vector<std::int64_t> sorted = stats.completion_index;
    std::sort(sorted.begin(), sorted.end());
    double sum = 0;
    for (std::int64_t c : sorted) sum += static_cast<double>(c);
    stats.mean = sum / static_cast<double>(sorted.size());
    stats.median = sorted[sorted.size() / 2];
    std::size_t p95_index = (sorted.size() * 95) / 100;
    if (p95_index >= sorted.size()) p95_index = sorted.size() - 1;
    stats.p95 = sorted[p95_index];
    stats.max = sorted.back();
  }
  return stats;
}

}  // namespace sim
}  // namespace ltc
