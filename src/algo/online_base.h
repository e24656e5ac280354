// Shared machinery for the per-worker online schedulers (LAF, AAM,
// Random): candidate filtering, arrangement bookkeeping and the snapshot
// pair. Subclasses only implement the per-worker selection rule.

#ifndef LTC_ALGO_ONLINE_BASE_H_
#define LTC_ALGO_ONLINE_BASE_H_

#include <optional>
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

  /// Snapshot protocol (DESIGN.md §11): the generic serialization is the
  /// arrangement's Add sequence ("a" lines), which RestoreState replays
  /// through Add() + OnAssigned() so per-task aggregates (AAM) rebuild
  /// themselves; schedulers with state that replay cannot rebuild (Random's
  /// generator) add "x <payload>" lines via the extras hooks.
  Status SerializeState(std::string* out) const override;
  Status RestoreState(const model::ProblemInstance& instance,
                      const StreamShardContext& shard,
                      const std::string& blob) override;

  bool Done() const override {
    return arrangement_.has_value() && arrangement_->AllCompleted();
  }

  const model::Arrangement& arrangement() const override {
    return *arrangement_;
  }

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

  /// Hook invoked after each committed assignment (AAM maintains its
  /// remaining-demand aggregates here).
  virtual void OnAssigned(const model::Worker& worker, model::TaskId task) {
    (void)worker;
    (void)task;
  }

  /// Hook invoked by InitStreaming after the base state is ready.
  virtual Status OnInit() { return Status::OK(); }

  /// Hook invoked after the arrangement grew by one task (streaming);
  /// subclasses with per-task state (AAM's remaining-demand aggregates)
  /// extend it here.
  virtual Status OnTaskAddedHook(model::TaskId task) {
    (void)task;
    return Status::OK();
  }

  /// Appends scheduler-specific snapshot lines ("x <payload>") after the
  /// generic arrangement lines. Default: no extra state.
  virtual void SerializeExtras(std::string* out) const { (void)out; }

  /// Applies one scheduler-specific snapshot payload (the text after
  /// "x "). Extras are applied after the arrangement replay, in emission
  /// order. Default: schedulers without extras reject any payload.
  virtual Status RestoreExtra(const std::string& payload) {
    return Status::InvalidArgument(Name() +
                                   ": unknown snapshot payload: " + payload);
  }

  const model::ProblemInstance& instance() const { return *instance_; }
  std::int32_t capacity() const { return instance_->capacity; }
  double delta() const { return delta_; }
  const model::Arrangement& arr() const { return *arrangement_; }

 private:
  const model::ProblemInstance* instance_ = nullptr;
  std::optional<model::Arrangement> arrangement_;
  double delta_ = 0.0;
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
