#include "algo/mcf_ltc.h"

#include "algo/mcf_stream.h"

namespace ltc {
namespace algo {

StatusOr<ScheduleResult> McfLtc::Run(const model::ProblemInstance& instance,
                                     const model::EligibilityIndex& index) {
  // Every task is known before the first worker, so the stream's batch
  // targets are the offline m exactly (algo/mcf_stream.h); DriveOnline
  // stops at Line 17, once every task reached delta.
  McfStream stream(options_);
  LTC_ASSIGN_OR_RETURN(const std::int64_t workers_seen,
                       DriveOnline(instance, index, &stream));
  ScheduleResult result(instance.num_tasks(), instance.Delta());
  result.arrangement = stream.ReleaseArrangement();
  result.completed = result.arrangement.AllCompleted();
  result.latency = result.arrangement.MaxWorkerIndex();
  result.stats.workers_seen = workers_seen;
  FillArrangementStats(result.arrangement, &result.stats);
  result.stats.mcf_batches = stream.batches_solved();
  result.stats.mcf_augmentations = stream.augmentations();
  return result;
}

}  // namespace algo
}  // namespace ltc
