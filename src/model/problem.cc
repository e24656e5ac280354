#include "model/problem.h"

#include <cmath>

#include "common/string_util.h"
#include "model/quality.h"

namespace ltc {
namespace model {

double ProblemInstance::Delta() const {
  return 2.0 * std::log(1.0 / epsilon);
}

void ProblemInstance::RetireWorkersBefore(WorkerIndex w) {
  if (w <= worker_offset + 1) return;
  const auto drop = static_cast<std::ptrdiff_t>(w - worker_offset - 1);
  workers.erase(workers.begin(), workers.begin() + drop);
  worker_offset = w - 1;
}

void ProblemInstance::RetireTasksBefore(TaskId t) {
  if (t <= task_offset) return;
  tasks.erase(tasks.begin(),
              tasks.begin() + static_cast<std::ptrdiff_t>(t - task_offset));
  task_offset = t;
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
  if (task_offset < 0) {
    return Status::InvalidArgument(
        StrFormat("task_offset must be >= 0, got %d", task_offset));
  }
  for (std::size_t i = 0; i < tasks.size(); ++i) {
    if (tasks[i].id != task_offset + static_cast<TaskId>(i)) {
      return Status::InvalidArgument(
          StrFormat("task ids must be dense %d..%lld; tasks[%zu].id = %d",
                    task_offset, static_cast<long long>(num_tasks() - 1), i,
                    tasks[i].id));
    }
  }
  if (worker_offset < 0) {
    return Status::InvalidArgument(
        StrFormat("worker_offset must be >= 0, got %d", worker_offset));
  }
  for (std::size_t i = 0; i < workers.size(); ++i) {
    const Worker& w = workers[i];
    if (w.index != worker_offset + static_cast<WorkerIndex>(i + 1)) {
      return Status::InvalidArgument(
          StrFormat("worker indices must be %d..%d in order; workers[%zu]"
                    ".index = %d",
                    worker_offset + 1, last_worker(), i, w.index));
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
