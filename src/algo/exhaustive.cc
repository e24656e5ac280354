#include "algo/exhaustive.h"

#include <algorithm>
#include <cmath>
#include <vector>

#include "common/math_util.h"
#include "common/string_util.h"
#include "model/quality.h"

namespace ltc {
namespace algo {

namespace {

/// DFS context for one prefix-feasibility check.
struct Search {
  const model::ProblemInstance* instance;
  // Per-worker eligible task lists (for workers 1..n of the prefix).
  const std::vector<std::vector<model::TaskId>>* eligible;
  // Suffix value bound: best_suffix[w] = sum over workers w..n-1 (0-based) of
  // their top-K Acc*; used to prune branches that cannot cover the demand.
  std::vector<double> best_suffix;
  std::vector<double> remaining;  // per-task demand left
  double remaining_total = 0.0;
  std::vector<model::Assignment> stack;
  std::vector<model::Assignment> best;
  std::int64_t nodes = 0;
  std::int64_t node_budget = 0;
  bool exhausted = false;

  bool AllSatisfied() const { return remaining_total <= model::kQualityTol; }

  /// Assigns workers[w..] (0-based positions); returns true on success.
  bool AssignWorker(std::size_t w) {
    if (AllSatisfied()) {
      best = stack;
      return true;
    }
    if (w >= eligible->size()) return false;
    if (++nodes > node_budget) {
      exhausted = true;
      return false;
    }
    // Value bound: even perfect use of all remaining workers cannot close
    // the gap.
    if (remaining_total > best_suffix[w] + model::kQualityTol) return false;

    const auto& cand = (*eligible)[w];
    const auto k = static_cast<std::size_t>(
        std::min<std::int64_t>(instance->capacity,
                               static_cast<std::int64_t>(cand.size())));
    // Dominance: assigning strictly fewer than k tasks is never better, so
    // enumerate exactly-k subsets of the eligible list.
    return ChooseSubset(w, 0, k);
  }

  /// Picks `left` more tasks for worker position w from cand[ci..].
  bool ChooseSubset(std::size_t w, std::size_t ci, std::size_t left) {
    if (left == 0) return AssignWorker(w + 1);
    const auto& cand = (*eligible)[w];
    if (cand.size() - ci < left) return false;  // not enough tasks remain
    if (exhausted) return false;
    // Worker position w is the (w + 1)-th arrival.
    const auto windex = static_cast<model::WorkerIndex>(w + 1);
    // Branch A: take cand[ci].
    const model::TaskId t = cand[ci];
    const double acc_star = instance->AccStar(windex, t);
    const auto ti = static_cast<std::size_t>(t);
    const double before = remaining[ti];
    const double after = std::max(0.0, before - acc_star);
    remaining[ti] = after;
    remaining_total -= before - after;
    stack.push_back(model::Assignment{windex, t, acc_star});
    if (ChooseSubset(w, ci + 1, left - 1)) return true;
    stack.pop_back();
    remaining_total += before - after;
    remaining[ti] = before;
    // Branch B: skip cand[ci].
    return ChooseSubset(w, ci + 1, left);
  }
};

}  // namespace

StatusOr<ScheduleResult> Exhaustive::Run(
    const model::ProblemInstance& instance,
    const model::EligibilityIndex& index) {
  LTC_RETURN_IF_ERROR(instance.Validate());
  if (instance.num_workers() > options_.max_workers ||
      instance.num_tasks() > options_.max_tasks) {
    return Status::FailedPrecondition(StrFormat(
        "Exhaustive refuses |W|=%lld, |T|=%lld (limits: %lld, %lld) — the "
        "search is exponential",
        static_cast<long long>(instance.num_workers()),
        static_cast<long long>(instance.num_tasks()),
        static_cast<long long>(options_.max_workers),
        static_cast<long long>(options_.max_tasks)));
  }
  const double delta = instance.Delta();

  // Eligible lists and per-worker best-K contribution for all workers.
  std::vector<std::vector<model::TaskId>> eligible(
      static_cast<std::size_t>(instance.num_workers()));
  std::vector<double> top_k_value(eligible.size(), 0.0);
  for (std::size_t i = 0; i < eligible.size(); ++i) {
    const model::Worker& worker =
        instance.worker(static_cast<model::WorkerIndex>(i + 1));
    index.EligibleTasksSorted(worker, &eligible[i]);
    std::vector<double> values;
    values.reserve(eligible[i].size());
    for (model::TaskId t : eligible[i]) {
      values.push_back(instance.AccStar(worker.index, t));
    }
    std::sort(values.rbegin(), values.rend());
    const auto k = std::min<std::size_t>(
        values.size(), static_cast<std::size_t>(instance.capacity));
    for (std::size_t j = 0; j < k; ++j) top_k_value[i] += values[j];
  }

  // Minimal conceivable prefix length (Theorem-2 style counting bound).
  const double total_demand = delta * static_cast<double>(instance.num_tasks());
  const auto n_start = std::max<std::int64_t>(
      1, static_cast<std::int64_t>(
             std::ceil(total_demand /
                       static_cast<double>(instance.capacity) -
                       model::kQualityTol)));

  for (std::int64_t n = n_start; n <= instance.num_workers(); ++n) {
    Search search;
    search.instance = &instance;
    std::vector<std::vector<model::TaskId>> prefix_eligible(
        eligible.begin(), eligible.begin() + static_cast<std::ptrdiff_t>(n));
    search.eligible = &prefix_eligible;
    search.best_suffix.assign(static_cast<std::size_t>(n) + 1, 0.0);
    for (std::int64_t w = n - 1; w >= 0; --w) {
      search.best_suffix[static_cast<std::size_t>(w)] =
          search.best_suffix[static_cast<std::size_t>(w + 1)] +
          top_k_value[static_cast<std::size_t>(w)];
    }
    search.remaining.assign(static_cast<std::size_t>(instance.num_tasks()),
                            delta);
    search.remaining_total = total_demand;
    search.node_budget = options_.max_search_nodes;

    if (search.AssignWorker(0)) {
      ScheduleResult result(instance.num_tasks(), delta);
      for (const model::Assignment& a : search.best) {
        result.arrangement.Add(a.worker, a.task, a.acc_star);
      }
      result.stats.workers_seen = n;
      FillArrangementStats(result.arrangement, &result.stats);
      result.completed = result.arrangement.AllCompleted();
      // Any solution over prefix n when prefix n-1 is infeasible must use
      // worker n, so the optimum latency is n itself.
      result.latency = static_cast<model::WorkerIndex>(n);
      return result;
    }
    if (search.exhausted) {
      return Status::ResourceExhausted(
          StrFormat("Exhaustive: node budget %lld exceeded at prefix %lld",
                    static_cast<long long>(options_.max_search_nodes),
                    static_cast<long long>(n)));
    }
  }

  // Infeasible even with the full stream.
  ScheduleResult result(instance.num_tasks(), delta);
  result.completed = false;
  result.latency = 0;
  result.stats.workers_seen = instance.num_workers();
  return result;
}

}  // namespace algo
}  // namespace ltc
