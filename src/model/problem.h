// A full LTC problem instance: tasks, the worker arrival stream, the quality
// threshold, the shared capacity K, and the accuracy model (paper
// Definitions 6-7). Offline algorithms see the whole instance; online
// algorithms must only look at workers[0..i] when deciding for worker i
// (enforced structurally by the simulation engine in src/sim). A streaming
// instance (svc::StreamPipeline) holds only a window of the arrival stream
// and of its tasks: workers decided for good are retired from the front
// (worker_offset), and so are closed tasks no algorithm reads again
// (task_offset).

#ifndef LTC_MODEL_PROBLEM_H_
#define LTC_MODEL_PROBLEM_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "model/accuracy.h"
#include "model/task.h"
#include "model/worker.h"

namespace ltc {
namespace model {

/// Default spam threshold: workers/pairs below this predicted accuracy are
/// never assigned (paper Sec. II-A assumption (i); also what makes
/// Acc* monotone in Acc — see DESIGN.md "Eligibility").
inline constexpr double kDefaultAccMin = 0.66;

/// \brief An immutable LTC problem instance.
struct ProblemInstance {
  /// Tasks, or their resident window; tasks[i].id must equal
  /// task_offset + i.
  std::vector<Task> tasks;
  /// Tasks retired from the front (RetireTasksBefore). Always 0 in an
  /// offline instance.
  TaskId task_offset = 0;
  /// Arrival stream, or its resident window; workers[i].index must equal
  /// worker_offset + i + 1.
  std::vector<Worker> workers;
  /// Workers retired from the front of the stream (RetireWorkersBefore).
  /// Always 0 in an offline instance.
  WorkerIndex worker_offset = 0;
  /// Tolerable error rate epsilon in (0, 1).
  double epsilon = 0.1;
  /// Per-worker capacity K (max tasks per check-in).
  std::int32_t capacity = 6;
  /// Eligibility threshold: (w, t) assignable iff Acc(w,t) >= acc_min.
  double acc_min = kDefaultAccMin;
  /// Predicted accuracy model (shared; never null in a valid instance).
  std::shared_ptr<const AccuracyFunction> accuracy;

  /// Every task ever admitted (retired ones count), so ids stay stable.
  std::int64_t num_tasks() const {
    return static_cast<std::int64_t>(task_offset) +
           static_cast<std::int64_t>(tasks.size());
  }
  /// True while task `t`'s record is held (arrived, not retired).
  bool task_resident(TaskId t) const {
    return t >= task_offset && t < num_tasks();
  }
  /// The record of resident task `t` (precondition: task_resident(t)).
  const Task& task(TaskId t) const {
    return tasks[static_cast<std::size_t>(t - task_offset)];
  }
  Task& task(TaskId t) {
    return tasks[static_cast<std::size_t>(t - task_offset)];
  }
  /// Resident workers (the whole stream unless some were retired).
  std::int64_t num_workers() const {
    return static_cast<std::int64_t>(workers.size());
  }
  /// Arrival index of the newest worker (0 before any arrived); retired
  /// workers count.
  WorkerIndex last_worker() const {
    return worker_offset + static_cast<WorkerIndex>(workers.size());
  }
  /// True while worker `w`'s record is held (not retired, arrived).
  bool resident(WorkerIndex w) const {
    return w > worker_offset && w <= last_worker();
  }
  /// The record of resident worker `w` (precondition: resident(w)).
  const Worker& worker(WorkerIndex w) const {
    return workers[static_cast<std::size_t>(w - worker_offset - 1)];
  }
  Worker& worker(WorkerIndex w) {
    return workers[static_cast<std::size_t>(w - worker_offset - 1)];
  }

  /// Drops every worker older than `w` (index < w) and advances
  /// worker_offset past them; a no-op for workers already retired.
  /// Precondition: w <= last_worker() + 1.
  void RetireWorkersBefore(WorkerIndex w);
  /// Drops every task older than `t` (id < t) and advances task_offset past
  /// them; a no-op for tasks already retired. Precondition:
  /// t <= num_tasks().
  void RetireTasksBefore(TaskId t);

  /// delta = 2 ln(1/epsilon). Precondition: a Validate()d instance.
  double Delta() const;

  /// Predicted accuracy / Hoeffding contribution of a pair (resident `w`
  /// and `t`).
  double Acc(WorkerIndex w, TaskId t) const {
    return accuracy->Acc(worker(w), task(t));
  }
  double AccStar(WorkerIndex w, TaskId t) const {
    return accuracy->AccStar(worker(w), task(t));
  }

  /// (w, t) may be assigned iff predicted accuracy reaches acc_min.
  bool Eligible(WorkerIndex w, TaskId t) const {
    return Acc(w, t) >= acc_min;
  }

  /// Structural validation: ids dense from task_offset, indices sequential
  /// from worker_offset + 1, parameters in range, accuracy model present.
  Status Validate() const;

  /// One-line description for logs ("|T|=1000 |W|=40000 K=6 eps=0.1 ...").
  std::string Summary() const;
};

}  // namespace model
}  // namespace ltc

#endif  // LTC_MODEL_PROBLEM_H_
