// Scheduler interfaces for the LTC problem.
//
// Offline schedulers (paper Sec. III) see the whole instance. Online
// schedulers (paper Sec. IV, and the streaming MCF-LTC) implement one
// protocol: InitStreaming, OnTaskAdded, one OnBatchWithCandidates per
// committed batch, OnStreamEnd, and one snapshot Serialize(StateArchive&).
// svc::StreamPipeline drives it over a live event stream; DriveOnline
// drives it over a fully materialised instance, one worker per call in
// arrival order, which enforces the temporal constraint of Definition 7
// (each worker is committed before the next one is seen). sim validates a
// finished run's whole arrangement (model::ValidateArrangement); a
// streaming pipeline checks each commit round as it commits
// (model::ValidateCommitRound), before it retires the round's workers.

#ifndef LTC_ALGO_SCHEDULER_H_
#define LTC_ALGO_SCHEDULER_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/state_archive.h"
#include "common/status.h"
#include "model/arrangement.h"
#include "model/eligibility.h"
#include "model/problem.h"

namespace ltc {

namespace algo {

/// Solver diagnostics accumulated during a run.
struct ScheduleStats {
  /// Arrivals examined before stopping.
  std::int64_t workers_seen = 0;
  /// Distinct workers that received at least one task.
  std::int64_t workers_used = 0;
  /// Total (worker, task) assignments made.
  std::int64_t assignments = 0;
  /// Sum of Acc* over all assignments (the ∆ of the paper's analysis).
  double total_acc_star = 0.0;
  /// MCF-LTC only: batches solved and flow augmentations performed.
  std::int64_t mcf_batches = 0;
  std::int64_t mcf_augmentations = 0;
};

/// Outcome of a scheduling run.
struct ScheduleResult {
  ScheduleResult(std::int64_t num_tasks, double delta)
      : arrangement(num_tasks, delta) {}

  model::Arrangement arrangement;
  /// True iff every task reached delta before the stream ran out.
  bool completed = false;
  /// The objective MinMax(M): max arrival index used. Only meaningful when
  /// completed (otherwise it is the max index used before exhaustion).
  model::WorkerIndex latency = 0;
  ScheduleStats stats;
};

/// \brief An algorithm that sees the full instance up front (MCF-LTC,
/// Base-off, the exhaustive optimum).
class OfflineScheduler {
 public:
  virtual ~OfflineScheduler() = default;

  /// Display name ("MCF-LTC", "Base-off", ...).
  virtual std::string Name() const = 0;

  /// Solves the instance. `index` must have been built on `instance`.
  virtual StatusOr<ScheduleResult> Run(
      const model::ProblemInstance& instance,
      const model::EligibilityIndex& index) = 0;
};

/// Shard-local identity of a streaming scheduler. The sharded service
/// (svc::ShardedStreamEngine, DESIGN.md §9) runs one scheduler per spatial
/// shard over that shard's own growing instance; the context tells seeded
/// schedulers which shard they are so per-shard randomness decorrelates
/// deterministically. The single-pipeline default {0, 1} is the identity:
/// shard 0 behaves exactly like an unsharded scheduler.
struct StreamShardContext {
  int shard_id = 0;
  int num_shards = 1;
};

/// \brief An algorithm that commits as workers arrive (LAF, AAM, Random,
/// and the streaming MCF).
///
/// A streaming driver appends tasks and workers to one growing
/// ProblemInstance as arrival events come in (DriveOnline hands over a
/// complete one), and gives each batch of admitted workers to the
/// scheduler with their precomputed candidate sets. Implementations must
/// base decisions only on the tasks, the instance parameters and the
/// workers admitted so far.
///
/// One call commits one batch, for every scheduler: the per-worker
/// heuristics (LAF, AAM, Random) commit the batch's workers one by one in
/// arrival order, while the streaming MCF may buffer workers until it has
/// a whole Theorem-2 batch, so a call can assign tasks to workers admitted
/// by earlier calls. Every commitment is therefore reported as an explicit
/// (worker, task) pair.
class OnlineScheduler {
 public:
  virtual ~OnlineScheduler() = default;

  virtual std::string Name() const = 0;

  /// True once every task reached delta.
  bool Done() const {
    return arrangement_.has_value() && arrangement_->AllCompleted();
  }

  /// The arrangement built so far.
  const model::Arrangement& arrangement() const { return *arrangement_; }

  /// The shard identity of the current run ({0, 1} for DriveOnline and
  /// unsharded streaming runs).
  const StreamShardContext& shard_context() const { return shard_context_; }

  /// Resets all state for a run over `instance`, which the caller may grow
  /// in place between calls (tasks via OnTaskAdded, workers before the
  /// OnBatchWithCandidates that admits them). `instance` may still be
  /// empty here. `shard` is the run's shard identity (shard_context());
  /// every svc pipeline passes its own, and the default is the unsharded
  /// identity.
  virtual Status InitStreaming(const model::ProblemInstance& instance,
                               const StreamShardContext& shard = {}) = 0;

  /// Notifies that the instance's tasks grew by one; `task` is the new id
  /// and must equal the previous task count (dense arrival order).
  virtual Status OnTaskAdded(model::TaskId task) = 0;

  /// One streaming commitment. `worker` is the scheduler-local arrival
  /// index (instance.worker(worker)) — the svc pipeline translates to
  /// global identity when it serialises the assignment log.
  struct StreamCommit {
    model::WorkerIndex worker = 0;
    model::TaskId task = 0;
  };

  /// One batch: `workers[i]` (local arrival indices, arrival order,
  /// resident in the instance) was admitted with eligible tasks
  /// `*candidates[i]` (resident, ascending ids, gathered before the call).
  /// Appends every commitment made — for these workers or ones buffered from
  /// earlier calls — to *commits in commit order, recording each in the
  /// arrangement. May commit nothing (buffering). Never commits to a task
  /// that an earlier commit of the same call completed; LAF, AAM and MCF
  /// never commit to any task that already reached delta (DESIGN.md §8).
  virtual Status OnBatchWithCandidates(
      const std::vector<model::WorkerIndex>& workers,
      const std::vector<const std::vector<model::TaskId>*>& candidates,
      std::vector<StreamCommit>* commits) = 0;

  /// End of stream: flushes any internally buffered workers (the final
  /// partial batch) exactly like the offline algorithm's last iteration.
  /// Appends the commitments to *commits. Default: nothing buffered.
  virtual Status OnStreamEnd(std::vector<StreamCommit>* commits) {
    (void)commits;
    return Status::OK();
  }

  /// The oldest (smallest local index) worker this scheduler still holds
  /// for a later commit — MCF's Theorem-2 buffer — or 0 when it holds none.
  /// Every other worker an earlier call admitted is decided for good: no
  /// later call reads its record (DESIGN.md §8, worker lifetime).
  virtual model::WorkerIndex OldestHeldWorker() const { return 0; }

  /// Drops the arrangement's per-worker loads and listed assignments below
  /// `worker`; the driver calls it as it retires those workers from the
  /// instance's worker window.
  void RetireWorkersBefore(model::WorkerIndex worker) {
    arrangement_->RetireWorkersBefore(worker);
  }

  /// The oldest (smallest id) task this scheduler may still read although
  /// it closed — one that MCF's buffered candidate lists name, or whose
  /// flow demand MCF has yet to zero — or -1 when it holds none. Every
  /// other closed task is final: no later call reads it (DESIGN.md §8,
  /// task lifetime).
  virtual model::TaskId OldestHeldTask() const { return -1; }

  /// Drops the per-task state of every task below `task`, all closed and
  /// none held; the streaming pipeline calls it as it retires those tasks
  /// from the instance's task window.
  void RetireTasksBefore(model::TaskId task) {
    arrangement_->RetireTasksBefore(task);
    OnTasksRetired();
  }

  // --- Snapshot protocol (svc crash recovery; DESIGN.md §11) ---
  //
  // A crash-recoverable service periodically snapshots each pipeline; the
  // scheduler contributes the records of every bit of streaming-mode
  // mutable state that is not derivable from the instance prefix alone.
  // The contract: restoring a snapshot and continuing the stream must
  // produce exactly the commitments the uninterrupted scheduler would have
  // produced — svc_recovery_test pins this per scheduler.
  //
  /// Writes this scheduler's streaming state to a writer archive, or
  /// replays a reader archive's records onto a scheduler that was just
  /// InitStreaming'd over the instance regrown to the snapshot's
  /// task/worker prefix. After a read the scheduler is indistinguishable
  /// (commitment for commitment) from one that lived through the whole
  /// prefix. FailedPrecondition before InitStreaming.
  ///
  /// This writes the arrangement's records (model::Arrangement::Serialize:
  /// the counters and S per task).
  /// Schedulers with more state override this, call it, and append their
  /// own records.
  virtual Status Serialize(StateArchive& ar);

 protected:
  /// The shared part of InitStreaming: checks `instance` (an accuracy
  /// model, epsilon in (0, 1)), starts an empty arrangement over its tasks
  /// and records `shard`, so a reused scheduler never carries a stale shard
  /// id into the next run's seeding.
  Status StartArrangement(const model::ProblemInstance& instance,
                          const StreamShardContext& shard);
  /// The shared part of OnTaskAdded: grows the arrangement by `task`.
  Status AddArrangementTask(model::TaskId task);
  /// Hook after RetireTasksBefore: schedulers with per-task state drop it
  /// below arrangement().first_task().
  virtual void OnTasksRetired() {}

  const model::ProblemInstance* instance_ = nullptr;
  std::optional<model::Arrangement> arrangement_;
  double delta_ = 0.0;

 private:
  StreamShardContext shard_context_{};
};

/// Drives `scheduler` over the complete `instance` (paper Definition 7):
/// validates the instance, rejects an `index` built on another instance,
/// calls InitStreaming, then commits each worker in arrival order with one
/// single-worker OnBatchWithCandidates — its candidates are every eligible
/// task from `index` (EligibleTasksSorted), completed or not — until Done()
/// or the stream runs out, and ends with OnStreamEnd. Returns the number of
/// workers examined (ScheduleStats::workers_seen).
StatusOr<std::int64_t> DriveOnline(const model::ProblemInstance& instance,
                                   const model::EligibilityIndex& index,
                                   OnlineScheduler* scheduler);

/// Sets stats->assignments, workers_used and total_acc_star (summed in
/// commit order) from an arrangement that retired no worker; leaves the
/// other fields alone.
void FillArrangementStats(const model::Arrangement& arrangement,
                          ScheduleStats* stats);

}  // namespace algo
}  // namespace ltc

#endif  // LTC_ALGO_SCHEDULER_H_
