#include "algo/aam.h"

#include <algorithm>

namespace ltc {
namespace algo {

Status Aam::OnInit() {
  const std::size_t n = instance().tasks.size();
  remaining_.Reset(instance().tasks.first_id(), n, delta());
  remaining_sum_ = delta() * static_cast<double>(n);
  max_tracker_ = std::make_unique<LazyMaxTracker>(&remaining_);
  last_strategy_ = Strategy::kNone;
  return Status::OK();
}

Status Aam::OnTaskAddedHook(model::TaskId task) {
  // A task arriving mid-stream enters with full remaining demand delta;
  // the lazy max heap takes the new entry through the same Update path the
  // assignment bookkeeping uses.
  remaining_.push_back(delta());
  remaining_sum_ += delta();
  max_tracker_->Update(task);
  return Status::OK();
}

void Aam::OnTasksRetired() {
  // The tracker drops the retired tasks' heap entries as it meets them.
  remaining_.RetireBefore(arr().first_task());
}

void Aam::SelectTasks(const model::Worker& worker,
                      const std::vector<model::TaskId>& candidates,
                      std::vector<model::TaskId>* out) {
  // Algorithm 3 lines 4-5 (or a forced pure strategy when ablating).
  bool use_lgf = true;
  switch (options_.force) {
    case AamOptions::Force::kLgfOnly:
      use_lgf = true;
      break;
    case AamOptions::Force::kLrfOnly:
      use_lgf = false;
      break;
    case AamOptions::Force::kNone: {
      const double avg =
          remaining_sum_ / static_cast<double>(instance().capacity);
      const double max_remain = max_tracker_->Max();
      use_lgf = avg >= max_remain;
      break;
    }
  }
  last_strategy_ = use_lgf ? Strategy::kLgf : Strategy::kLrf;

  // Lines 6-12: score candidates under the active strategy, keep top K.
  top_.Reset(static_cast<std::size_t>(capacity()));
  for (model::TaskId t : candidates) {
    const double remaining = remaining_.at(t);
    double score;
    if (use_lgf) {
      // LGF: the gain is capped by what the task still needs, so highly
      // accurate workers are not wasted on nearly-finished tasks.
      score = std::min(instance().AccStar(worker.index, t), remaining);
    } else {
      // LRF: attack the bottleneck tasks with the most remaining demand.
      score = remaining;
    }
    top_.Push(score, t);
  }
  top_.TakeDescending(&chosen_);
  for (const auto& item : chosen_) {
    out->push_back(static_cast<model::TaskId>(item.id));
  }
}

Status Aam::Serialize(StateArchive& ar) {
  LTC_RETURN_IF_ERROR(OnlineScheduler::Serialize(ar));
  LTC_RETURN_IF_ERROR(ar.Record("x remaining_sum", Real(&remaining_sum_)));
  if (ar.writing()) return Status::OK();
  for (model::TaskId t = arr().first_task(); t < arr().num_tasks(); ++t) {
    remaining_.at(t) = arr().Remaining(t);
  }
  max_tracker_ = std::make_unique<LazyMaxTracker>(&remaining_);
  return Status::OK();
}

void Aam::OnAssigned(model::TaskId task) {
  double& remaining = remaining_.at(task);
  const double new_remaining = arr().Remaining(task);
  remaining_sum_ -= remaining - new_remaining;
  remaining = new_remaining;
  max_tracker_->Update(task);
}

}  // namespace algo
}  // namespace ltc
