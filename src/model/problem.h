// A full LTC problem instance: tasks, the worker arrival stream, the quality
// threshold, the shared capacity K, and the accuracy model (paper
// Definitions 6-7). Offline algorithms see the whole instance; online
// algorithms must only look at workers[0..i] when deciding for worker i
// (enforced structurally by the simulation engine in src/sim). A streaming
// instance (svc::StreamPipeline) holds only a window of the arrival stream
// and of its tasks (common/id_window.h): workers decided for good are
// retired from the front, and so are closed tasks no algorithm reads
// again.

#ifndef LTC_MODEL_PROBLEM_H_
#define LTC_MODEL_PROBLEM_H_

#include <cstdint>
#include <memory>
#include <string>

#include "common/id_window.h"
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
  /// Tasks by id, or their resident window; tasks.at(t).id must equal t.
  /// An offline instance starts at id 0 and retires none.
  IdWindow<Task, TaskId> tasks;
  /// The arrival stream by index, or its resident window;
  /// workers.at(w).index must equal w. Indices start at 1; an offline
  /// instance retires none.
  IdWindow<Worker, WorkerIndex> workers{1};
  /// Tolerable error rate epsilon in (0, 1).
  double epsilon = 0.1;
  /// Per-worker capacity K (max tasks per check-in).
  std::int32_t capacity = 6;
  /// Eligibility threshold: (w, t) assignable iff Acc(w,t) >= acc_min.
  double acc_min = kDefaultAccMin;
  /// Predicted accuracy model (shared; never null in a valid instance).
  std::shared_ptr<const AccuracyFunction> accuracy;

  /// Every task ever admitted (retired ones count), so ids stay stable.
  std::int64_t num_tasks() const { return tasks.end_id(); }
  /// True while task `t`'s record is held (arrived, not retired).
  bool task_resident(TaskId t) const { return tasks.contains(t); }
  /// The record of resident task `t` (precondition: task_resident(t)).
  const Task& task(TaskId t) const { return tasks.at(t); }
  Task& task(TaskId t) { return tasks.at(t); }
  /// Resident workers (the whole stream unless some were retired).
  std::int64_t num_workers() const {
    return static_cast<std::int64_t>(workers.size());
  }
  /// Arrival index of the newest worker (0 before any arrived); retired
  /// workers count.
  WorkerIndex last_worker() const { return workers.end_id() - 1; }
  /// True while worker `w`'s record is held (not retired, arrived).
  bool resident(WorkerIndex w) const { return workers.contains(w); }
  /// The record of resident worker `w` (precondition: resident(w)).
  const Worker& worker(WorkerIndex w) const { return workers.at(w); }
  Worker& worker(WorkerIndex w) { return workers.at(w); }

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

  /// Structural validation: every task and worker record carries its id,
  /// the windows start at a task id >= 0 and a worker index >= 1,
  /// parameters in range, accuracy model present.
  Status Validate() const;

  /// One-line description for logs ("|T|=1000 |W|=40000 K=6 eps=0.1 ...").
  std::string Summary() const;
};

}  // namespace model
}  // namespace ltc

#endif  // LTC_MODEL_PROBLEM_H_
