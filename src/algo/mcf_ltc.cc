#include "algo/mcf_ltc.h"

#include <vector>

#include "algo/mcf_stream.h"

namespace ltc {
namespace algo {

StatusOr<ScheduleResult> McfLtc::Run(const model::ProblemInstance& instance,
                                     const model::EligibilityIndex& index) {
  LTC_RETURN_IF_ERROR(instance.Validate());
  // Every task is known before the first worker, so the stream's batch
  // targets are the offline m exactly (algo/mcf_stream.h).
  McfStream stream(options_);
  LTC_RETURN_IF_ERROR(stream.InitStreaming(instance));
  ScheduleResult result(instance.num_tasks(), instance.Delta());
  std::vector<model::TaskId> eligible;
  std::vector<model::WorkerIndex> worker(1);
  const std::vector<const std::vector<model::TaskId>*> candidates{&eligible};
  std::vector<OnlineScheduler::StreamCommit> commits;
  for (const model::Worker& w : instance.workers) {
    if (stream.Done()) break;  // Line 17: every task reached delta.
    index.EligibleTasksSorted(w, &eligible);
    worker[0] = w.index;
    LTC_RETURN_IF_ERROR(
        stream.OnBatchWithCandidates(worker, candidates, &commits));
    commits.clear();  // the arrangement records every commitment
    ++result.stats.workers_seen;
  }
  LTC_RETURN_IF_ERROR(stream.OnStreamEnd(&commits));

  result.arrangement = stream.ReleaseArrangement();
  result.completed = result.arrangement.AllCompleted();
  result.latency = result.arrangement.MaxWorkerIndex();
  result.stats.assignments = result.arrangement.size();
  for (const model::Assignment& a : result.arrangement.assignments()) {
    result.stats.total_acc_star += a.acc_star;
  }
  for (model::WorkerIndex w = 1; w <= result.latency; ++w) {
    if (result.arrangement.Load(w) > 0) ++result.stats.workers_used;
  }
  result.stats.mcf_batches = stream.batches_solved();
  result.stats.mcf_augmentations = stream.augmentations();
  return result;
}

}  // namespace algo
}  // namespace ltc
