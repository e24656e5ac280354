#include "model/problem.h"

#include <cmath>

#include "common/string_util.h"
#include "model/quality.h"

namespace ltc {
namespace model {

double ProblemInstance::Delta() const {
  return 2.0 * std::log(1.0 / epsilon);
}

Status ProblemInstance::Validate() const {
  if (accuracy == nullptr) {
    return Status::InvalidArgument("instance has no accuracy function");
  }
  if (!(epsilon > 0.0) || !(epsilon < 1.0)) {
    return Status::InvalidArgument(
        StrFormat("epsilon must be in (0, 1), got %g", epsilon));
  }
  if (capacity <= 0) {
    return Status::InvalidArgument(
        StrFormat("capacity must be positive, got %d", capacity));
  }
  if (acc_min < 0.0 || acc_min >= 1.0) {
    return Status::InvalidArgument(
        StrFormat("acc_min must be in [0, 1), got %g", acc_min));
  }
  if (tasks.empty()) {
    return Status::InvalidArgument("instance has no tasks");
  }
  if (tasks.first_id() < 0) {
    return Status::InvalidArgument(
        StrFormat("task ids must be >= 0, first is %d", tasks.first_id()));
  }
  for (TaskId t = tasks.first_id(); t < tasks.end_id(); ++t) {
    if (task(t).id != t) {
      return Status::InvalidArgument(
          StrFormat("task ids must be dense %d..%lld; task %d has id %d",
                    tasks.first_id(), static_cast<long long>(num_tasks() - 1),
                    t, task(t).id));
    }
  }
  if (workers.first_id() < 1) {
    return Status::InvalidArgument(StrFormat(
        "worker indices must be >= 1, first is %d", workers.first_id()));
  }
  for (WorkerIndex i = workers.first_id(); i <= last_worker(); ++i) {
    const Worker& w = worker(i);
    if (w.index != i) {
      return Status::InvalidArgument(
          StrFormat("worker indices must be %d..%d in order; worker %d has "
                    "index %d",
                    workers.first_id(), last_worker(), i, w.index));
    }
    if (!(w.historical_accuracy >= 0.0 && w.historical_accuracy <= 1.0)) {
      return Status::InvalidArgument(
          StrFormat("worker %d historical accuracy %g outside [0, 1]", w.index,
                    w.historical_accuracy));
    }
  }
  return Status::OK();
}

std::string ProblemInstance::Summary() const {
  return StrFormat("|T|=%lld |W|=%lld K=%d eps=%g delta=%.3f acc_min=%g acc=%s",
                   static_cast<long long>(num_tasks()),
                   static_cast<long long>(num_workers()), capacity, epsilon,
                   Delta(), acc_min,
                   accuracy ? accuracy->Name().c_str() : "<none>");
}

}  // namespace model
}  // namespace ltc
