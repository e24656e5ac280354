// Shared machinery for the per-worker online schedulers (LAF, AAM,
// Random): candidate filtering, arrangement bookkeeping and the snapshot
// records. Subclasses only implement the per-worker selection rule.

#ifndef LTC_ALGO_ONLINE_BASE_H_
#define LTC_ALGO_ONLINE_BASE_H_

#include <vector>

#include "algo/scheduler.h"

namespace ltc {
namespace algo {

/// \brief Base class implementing the commit loop common to all per-worker
/// online LTC algorithms. For each worker of a batch, in arrival order:
///
///   1. stop if all tasks are completed;
///   2. filter the worker's candidates (the rule of FilterCompleted());
///   3. delegate the choice of at most K of them to SelectTasks();
///   4. commit the choices to the arrangement and notify OnAssigned().
///
/// Candidate enumeration is the caller's: DriveOnline queries the
/// instance's EligibilityIndex, svc::StreamPipeline its incremental index
/// over the open tasks.
class OnlineSchedulerBase : public OnlineScheduler {
 public:
  Status InitStreaming(const model::ProblemInstance& instance,
                       const StreamShardContext& shard = {}) override;
  Status OnTaskAdded(model::TaskId task) override;
  Status OnBatchWithCandidates(
      const std::vector<model::WorkerIndex>& workers,
      const std::vector<const std::vector<model::TaskId>*>& candidates,
      std::vector<StreamCommit>* commits) override;

 protected:
  /// Chooses at most `capacity()` tasks from `candidates` (eligible,
  /// ascending id, filtered by the rule of FilterCompleted()) for `worker`;
  /// appends choices to *out.
  virtual void SelectTasks(const model::Worker& worker,
                           const std::vector<model::TaskId>& candidates,
                           std::vector<model::TaskId>* out) = 0;

  /// Whether candidates are restricted to tasks that have not reached delta.
  /// LAF/AAM check "if T[i] has not reached delta" (Algorithms 2-3); the
  /// naive Random baseline does not look at the quality state at all and so
  /// keeps answering nearby tasks that are already done, except those that
  /// an earlier commit of the same call completed — a rule every scheduler
  /// keeps (DESIGN.md §8).
  virtual bool FilterCompleted() const { return true; }

  /// Hook invoked after each committed assignment of `task` (AAM
  /// maintains its remaining-demand aggregates here).
  virtual void OnAssigned(model::TaskId task) { (void)task; }

  /// Hook invoked by InitStreaming after the base state is ready.
  virtual Status OnInit() { return Status::OK(); }

  /// Hook invoked after the arrangement grew by one task (streaming);
  /// subclasses with per-task state (AAM's remaining-demand aggregates)
  /// extend it here.
  virtual Status OnTaskAddedHook(model::TaskId task) {
    (void)task;
    return Status::OK();
  }

  const model::ProblemInstance& instance() const { return *instance_; }
  std::int32_t capacity() const { return instance_->capacity; }
  double delta() const { return delta_; }
  const model::Arrangement& arr() const { return *arrangement_; }

 private:
  std::vector<model::TaskId> candidates_scratch_;
  std::vector<model::TaskId> assigned_scratch_;
  /// Tasks an earlier commit of the current OnBatchWithCandidates call
  /// completed; kept only when !FilterCompleted() (the other schedulers
  /// drop every completed candidate anyway).
  std::vector<model::TaskId> closed_this_call_;
};

}  // namespace algo
}  // namespace ltc

#endif  // LTC_ALGO_ONLINE_BASE_H_
