// The task-worker arrangement M (paper Definition 6) with incremental
// bookkeeping: per-task accumulated Acc* (the S array of Algorithms 1-3)
// over a window of tasks not yet retired, per-worker load and assignment
// list over a window of workers still being decided, completion tracking,
// and constraint validation of a whole arrangement or of one streaming
// commit round.

#ifndef LTC_MODEL_ARRANGEMENT_H_
#define LTC_MODEL_ARRANGEMENT_H_

#include <cstdint>
#include <vector>

#include "common/id_window.h"
#include "common/status.h"
#include "model/problem.h"
#include "model/quality.h"
#include "model/task.h"
#include "model/worker.h"

namespace ltc {

class StateArchive;

namespace model {

/// One (worker, task) assignment with its Acc* contribution.
struct Assignment {
  WorkerIndex worker = 0;
  TaskId task = 0;
  double acc_star = 0.0;
};

/// \brief Mutable arrangement under construction by a scheduler.
///
/// Assignments are append-only (the paper's invariable constraint: an
/// assignment can never be revoked). Completion is tracked against the delta
/// fixed at construction. Offline, the assignment list holds every
/// assignment and S every task; a streaming pipeline retires decided
/// workers, and with them their entries (RetireWorkersBefore), and closed
/// tasks, and with them their S (RetireTasksBefore), while the counters and
/// the objective keep counting them.
class Arrangement {
 public:
  /// num_tasks tasks; those from `first_task` on start at accumulated
  /// Acc* = 0, and those below it are retired (completed). delta is the
  /// completion threshold 2 ln(1/eps).
  Arrangement(std::int64_t num_tasks, double delta, TaskId first_task = 0);

  /// Records that `worker` performs `task` contributing `acc_star`.
  /// Invariable: there is deliberately no removal API.
  void Add(WorkerIndex worker, TaskId task, double acc_star);

  /// Appends one more task (id num_tasks(), accumulated Acc* 0) — the
  /// streaming path (svc::StreamPipeline) grows the arrangement as task
  /// arrival events come in. Returns the new task's id.
  TaskId AddTask();

  /// Accumulated Acc* of resident task `t` (S[t] in the paper's
  /// pseudocode).
  double accumulated(TaskId t) const { return accumulated_.at(t); }

  /// Remaining demand max(0, delta - S[t]) of resident task `t`.
  double Remaining(TaskId t) const;

  /// True once resident task `t` has S[t] >= delta (with tolerance).
  bool TaskCompleted(TaskId t) const {
    return ReachedDelta(accumulated(t), delta_);
  }

  /// True once every task reached delta. O(1).
  bool AllCompleted() const { return completed_tasks_ == num_tasks(); }

  /// Every task ever added, retired ones included.
  std::int64_t num_tasks() const { return accumulated_.end_id(); }
  /// The oldest task whose S is held (0 unless tasks were retired).
  TaskId first_task() const { return accumulated_.first_id(); }
  std::int64_t completed_tasks() const { return completed_tasks_; }
  double delta() const { return delta_; }

  /// Number of tasks assigned to `worker` so far; 0 for a worker outside
  /// the load window (never assigned, or retired).
  std::int32_t Load(WorkerIndex worker) const;

  /// Distinct workers holding at least one assignment (retired ones
  /// included).
  std::int64_t workers_used() const { return workers_used_; }

  /// Sum of Acc* over every assignment ever added (retired workers'
  /// included), accumulated in commit order.
  double total_acc_star() const { return total_acc_star_; }

  /// Drops the loads and the listed assignments of every worker older than
  /// `worker` (index < worker). A streaming driver calls this once those
  /// workers are decided for good and retire from the instance, so the
  /// window stays O(open work). Add() of a
  /// retired worker lists the assignment until the next retirement but
  /// records no load.
  void RetireWorkersBefore(WorkerIndex worker);

  /// Drops S of every task older than `task` (id < task), which must all be
  /// completed: a streaming pipeline retires a closed task from its
  /// instance once no algorithm reads it again. The completed count keeps
  /// counting them.
  void RetireTasksBefore(TaskId task);

  /// The latency objective: max arrival index over all assignments
  /// (0 when empty).
  WorkerIndex MaxWorkerIndex() const { return max_worker_index_; }

  /// The assignments of workers not retired, in commit order: every
  /// assignment unless RetireWorkersBefore was called.
  const std::vector<Assignment>& assignments() const { return assignments_; }
  std::int64_t size() const {
    return static_cast<std::int64_t>(assignments_.size());
  }

  /// Snapshot records (DESIGN.md §11): "arr <workers_used>
  /// <max_worker_index> <total_acc_star>" (both counts at most `last`, the
  /// newest resident worker), then one "s <S[t]>" per resident task. S is
  /// stored, not recomputed: its sums are order-dependent and a task may
  /// have moved since. Writing needs an empty list: a streaming pipeline
  /// retires every committed worker before a snapshot, since a pipeline
  /// decides its workers in arrival order (FailedPrecondition otherwise).
  /// Reading needs an arrangement fresh over the same task window and
  /// starts its load window, empty, at `first`, the oldest resident
  /// worker.
  Status Serialize(StateArchive& ar, WorkerIndex first, WorkerIndex last);

 private:
  double delta_;
  // S over the resident tasks; its end is the task count.
  IdWindow<double, TaskId> accumulated_;
  std::vector<Assignment> assignments_;
  // The load window, from the oldest worker not retired to the newest one
  // assigned.
  IdWindow<std::int32_t, WorkerIndex> load_{1};
  std::int64_t workers_used_ = 0;
  std::int64_t completed_tasks_ = 0;
  WorkerIndex max_worker_index_ = 0;
  double total_acc_star_ = 0.0;
};

/// \brief Checks every LTC constraint of `arrangement` against `instance`:
///
///  * worker indices and task ids in range;
///  * capacity: no worker holds more than K assignments;
///  * no duplicate (worker, task) pair;
///  * eligibility: every assigned pair has Acc >= acc_min;
///  * recorded Acc* values match the instance's accuracy model;
///  * if `require_completion`, every task's recomputed ΣAcc* reaches delta.
///
/// Returns OK or the first violation found.
Status ValidateArrangement(const ProblemInstance& instance,
                           const Arrangement& arrangement,
                           bool require_completion);

/// \brief Checks one streaming commit round: `arrangement`'s assignments
/// from index `first` on, recorded by a scheduler that has just committed
/// them, while every worker and task they name must still be resident in
/// `instance` (ProblemInstance::resident, task_resident). Per assignment it
/// runs ValidateArrangement's checks — worker and task in range, Acc >=
/// acc_min, recorded Acc* equal to the model's — and per worker the capacity K and no duplicate (worker,
/// task) pair. Those two hold across rounds because an online worker is
/// decided once (Definition 7): a worker's arrangement Load must equal its
/// commitments in this round. Returns OK or the first violation found.
Status ValidateCommitRound(const ProblemInstance& instance,
                           const Arrangement& arrangement, std::size_t first);

}  // namespace model
}  // namespace ltc

#endif  // LTC_MODEL_ARRANGEMENT_H_
