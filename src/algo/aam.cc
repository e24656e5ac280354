#include "algo/aam.h"

#include <algorithm>

namespace ltc {
namespace algo {

Status Aam::OnInit() {
  const auto n = static_cast<std::size_t>(instance().num_tasks() -
                                          instance().task_offset);
  remaining_.assign(n, delta());
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
  max_tracker_->Update(static_cast<std::int64_t>(Slot(task)));
  return Status::OK();
}

void Aam::OnTasksRetired() {
  // The pipeline compacts at most once per window's worth of retired tasks,
  // so rebuilding the tracker over the kept window is amortized too.
  const auto kept =
      static_cast<std::ptrdiff_t>(arr().num_tasks() - arr().first_task());
  remaining_.erase(remaining_.begin(), remaining_.end() - kept);
  max_tracker_ = std::make_unique<LazyMaxTracker>(&remaining_);
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
    const double remaining = remaining_[Slot(t)];
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
    remaining_[Slot(t)] = arr().Remaining(t);
  }
  max_tracker_ = std::make_unique<LazyMaxTracker>(&remaining_);
  return Status::OK();
}

void Aam::OnAssigned(model::TaskId task) {
  const std::size_t t = Slot(task);
  const double new_remaining = arr().Remaining(task);
  remaining_sum_ -= remaining_[t] - new_remaining;
  remaining_[t] = new_remaining;
  max_tracker_->Update(static_cast<std::int64_t>(t));
}

}  // namespace algo
}  // namespace ltc
