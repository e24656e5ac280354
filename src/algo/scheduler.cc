#include "algo/scheduler.h"

namespace ltc {
namespace algo {

StatusOr<std::int64_t> DriveOnline(const model::ProblemInstance& instance,
                                   const model::EligibilityIndex& index,
                                   OnlineScheduler* scheduler) {
  LTC_RETURN_IF_ERROR(instance.Validate());
  if (&index.instance() != &instance) {
    return Status::InvalidArgument(
        "eligibility index was built for a different instance");
  }
  LTC_RETURN_IF_ERROR(scheduler->InitStreaming(instance));
  std::vector<model::TaskId> eligible;
  std::vector<model::WorkerIndex> worker(1);
  const std::vector<const std::vector<model::TaskId>*> candidates{&eligible};
  std::vector<OnlineScheduler::StreamCommit> commits;
  std::int64_t workers_seen = 0;
  for (const model::Worker& w : instance.workers) {
    if (scheduler->Done()) break;
    // Sorted: keeps candidate order (and thus seeded Random's picks)
    // independent of the spatial index's internal cell layout.
    index.EligibleTasksSorted(w, &eligible);
    worker[0] = w.index;
    LTC_RETURN_IF_ERROR(
        scheduler->OnBatchWithCandidates(worker, candidates, &commits));
    commits.clear();  // the arrangement records every commitment
    ++workers_seen;
  }
  LTC_RETURN_IF_ERROR(scheduler->OnStreamEnd(&commits));
  return workers_seen;
}

void FillArrangementStats(const model::Arrangement& arrangement,
                          ScheduleStats* stats) {
  stats->assignments = arrangement.size();
  stats->total_acc_star = arrangement.total_acc_star();
  stats->workers_used = arrangement.workers_used();
}

Status OnlineScheduler::StartArrangement(
    const model::ProblemInstance& instance, const StreamShardContext& shard) {
  // No Validate() here: a stream starts empty (no tasks, no workers), which
  // the instance validator rejects. The structural invariants — dense task
  // ids, sequential worker indices — are maintained by the caller as it
  // appends (DriveOnline validates its complete instance up front).
  if (instance.accuracy == nullptr) {
    return Status::InvalidArgument("streaming instance has no accuracy model");
  }
  if (!(instance.epsilon > 0.0) || !(instance.epsilon < 1.0)) {
    return Status::InvalidArgument("streaming instance epsilon outside (0,1)");
  }
  instance_ = &instance;
  delta_ = instance.Delta();
  arrangement_.emplace(instance.num_tasks(), delta_, instance.tasks.first_id());
  shard_context_ = shard;
  return Status::OK();
}

Status OnlineScheduler::AddArrangementTask(model::TaskId task) {
  if (!arrangement_.has_value()) {
    return Status::FailedPrecondition("OnTaskAdded before InitStreaming");
  }
  if (static_cast<std::int64_t>(task) != arrangement_->num_tasks()) {
    return Status::InvalidArgument(
        "OnTaskAdded: task ids must arrive densely in order");
  }
  arrangement_->AddTask();
  return Status::OK();
}

Status OnlineScheduler::Serialize(StateArchive& ar) {
  if (!arrangement_.has_value()) {
    return Status::FailedPrecondition("Serialize before InitStreaming");
  }
  return arrangement_->Serialize(ar, instance_->workers.first_id(),
                                 instance_->last_worker());
}

}  // namespace algo
}  // namespace ltc
