#include "algo/online_base.h"

#include <algorithm>

namespace ltc {
namespace algo {

Status OnlineSchedulerBase::InitStreaming(
    const model::ProblemInstance& instance, const StreamShardContext& shard) {
  LTC_RETURN_IF_ERROR(StartArrangement(instance, shard));
  return OnInit();
}

Status OnlineSchedulerBase::OnTaskAdded(model::TaskId task) {
  LTC_RETURN_IF_ERROR(AddArrangementTask(task));
  return OnTaskAddedHook(task);
}

Status OnlineSchedulerBase::OnBatchWithCandidates(
    const std::vector<model::WorkerIndex>& workers,
    const std::vector<const std::vector<model::TaskId>*>& candidates,
    std::vector<StreamCommit>* commits) {
  if (instance_ == nullptr) {
    return Status::FailedPrecondition(
        "OnBatchWithCandidates before InitStreaming");
  }
  if (workers.size() != candidates.size()) {
    return Status::InvalidArgument("workers/candidates size mismatch");
  }
  // A task that an earlier commit of this call completed is never served
  // again. The caller gathered the candidates before the call, so they can
  // hold such tasks; any other completed candidate is one the caller chose
  // to offer (DriveOnline offers every eligible task), and only
  // FilterCompleted() schedulers drop those too (DESIGN.md §8).
  const bool filter_completed = FilterCompleted();
  closed_this_call_.clear();
  for (std::size_t i = 0; i < workers.size(); ++i) {
    if (arrangement_->AllCompleted()) break;
    const model::Worker& worker = instance_->worker(workers[i]);
    candidates_scratch_.clear();
    for (model::TaskId t : *candidates[i]) {
      if (arrangement_->TaskCompleted(t) &&
          (filter_completed ||
           std::find(closed_this_call_.begin(), closed_this_call_.end(),
                     t) != closed_this_call_.end())) {
        continue;
      }
      candidates_scratch_.push_back(t);
    }
    if (candidates_scratch_.empty()) continue;

    assigned_scratch_.clear();
    SelectTasks(worker, candidates_scratch_, &assigned_scratch_);
    if (static_cast<std::int64_t>(assigned_scratch_.size()) > capacity()) {
      return Status::Internal(Name() + " selected more tasks than capacity K");
    }
    for (model::TaskId t : assigned_scratch_) {
      const bool was_open =
          !filter_completed && !arrangement_->TaskCompleted(t);
      arrangement_->Add(worker.index, t, instance_->AccStar(worker.index, t));
      OnAssigned(t);
      commits->push_back(StreamCommit{worker.index, t});
      if (was_open && arrangement_->TaskCompleted(t)) {
        closed_this_call_.push_back(t);
      }
    }
  }
  return Status::OK();
}

}  // namespace algo
}  // namespace ltc
