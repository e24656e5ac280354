// MCF — the MCF-LTC batch loop (paper Algorithm 1), the one implementation
// behind the offline scheduler (McfLtc::Run, algo/mcf_ltc.h),
// `sim::RunAlgorithm("MCF", ...)` and `ltc_serve --algo=MCF`.
//
// It implements the online protocol of algo/scheduler.h by buffering:
// each call's workers are kept with their candidate sets until a Theorem-2
// batch is full (m = |T| * ceil(delta) / K over the tasks seen so far,
// first batch 1.5x), and the batch is then matched against the still-open
// tasks by one min-cost max-flow:
//
//     st --(cap K, cost 0)--> w --(cap 1, cost -Acc*)--> t
//        --(cap ceil(delta - S[t]), cost 0)--> ed
//
// solved to optimality by flow::IncrementalMcmf, followed by flow
// extraction, the greedy top-up of spare capacity (Algorithm 1 lines
// 8-15) and supply retirement. The flow network, task demand nodes, and
// node potentials persist across batches for the lifetime of the stream,
// so every solve after the first starts from already-consistent prices.
//
// Determinism: commitments are a pure function of the admitted worker
// sequence and their candidate sets, so the svc determinism contract
// (logs pinned per --shards) holds unchanged. McfLtc::Run (and
// sim::RunOnline for "MCF") is this scheduler driven by
// algo::DriveOnline: a fully materialised task set and the instance's
// worker order, one worker per call. An EventLogFromInstance
// replay at batching deadline 0 admits exactly that sequence, so the served
// log reproduces the offline run (svc_mcf_stream_test pins this).

#ifndef LTC_ALGO_MCF_STREAM_H_
#define LTC_ALGO_MCF_STREAM_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "algo/mcf_ltc.h"
#include "algo/scheduler.h"
#include "common/heap.h"
#include "common/id_window.h"
#include "flow/min_cost_flow.h"

namespace ltc {
namespace algo {

/// \brief The MCF-LTC batch loop as a streaming scheduler.
///
/// Configured by McfLtcOptions: warm_start / drift_check_every configure
/// the persistent incremental solver, index_tie_break and the batch
/// factors shape each batch.
class McfStream : public OnlineScheduler {
 public:
  explicit McfStream(McfLtcOptions options = {}) : options_(options) {}

  std::string Name() const override { return "MCF"; }

  Status InitStreaming(const model::ProblemInstance& instance,
                       const StreamShardContext& shard = {}) override;
  Status OnTaskAdded(model::TaskId task) override;

  Status OnBatchWithCandidates(
      const std::vector<model::WorkerIndex>& workers,
      const std::vector<const std::vector<model::TaskId>*>& candidates,
      std::vector<StreamCommit>* commits) override;
  Status OnStreamEnd(std::vector<StreamCommit>* commits) override;
  /// The oldest worker of the open internal batch (0 when it is empty).
  model::WorkerIndex OldestHeldWorker() const override {
    return buf_worker_.empty() ? 0 : buf_worker_.front();
  }
  /// The oldest task the open batch's candidate lists name, or whose
  /// demand node still awaits its zeroing flush (-1 when neither).
  model::TaskId OldestHeldTask() const override;

  /// Snapshot protocol (DESIGN.md §11). Serialized: the arrangement's
  /// records (model::Arrangement::Serialize: "arr", one "s" per task), the
  /// open internal batch — one "b <worker> [cand...]" record per buffered
  /// worker, candidates exactly as gathered at admission — and the
  /// batch-phase flags ("m <first_batch> <batches_solved>"). The
  /// IncrementalMcmf warm state is deliberately NOT serialized — restore
  /// cold-starts a fresh solver. This is sound because
  /// each flush refreshes every demand absolutely from the arrangement and
  /// retires all supplies afterwards, so a solve's commitments depend only
  /// on (arrangement, buffered batch); the warm start is a pure speed-up
  /// whose warm-vs-cold assignment-log identity the drift checks already
  /// enforce (DESIGN.md §10). The first post-restore flush simply pays one
  /// cold solve.
  Status Serialize(StateArchive& ar) override;

  /// Moves the arrangement out (McfLtc::Run's result, without a copy);
  /// the scheduler needs InitStreaming again before any further call.
  model::Arrangement ReleaseArrangement() {
    model::Arrangement out = std::move(*arrangement_);
    arrangement_.reset();
    return out;
  }
  /// Batches solved so far (ScheduleStats::mcf_batches).
  std::int64_t batches_solved() const { return batches_solved_; }
  /// Flow augmentations summed over this run's solves
  /// (ScheduleStats::mcf_augmentations). Diagnostics only: not
  /// snapshotted, so it restarts at 0 on restore.
  std::int64_t augmentations() const { return augmentations_; }

 private:
  /// The Theorem-2 target size of the batch currently buffering, from the
  /// task count seen so far: max(1, floor(|T| * ceil(delta) / K *
  /// batch_factor)), 1.5x while the first batch is open.
  std::int64_t BatchTarget() const;

  /// Solves the buffered batch (Algorithm 1's loop body) and appends its
  /// commitments. No-op on an empty buffer; drains the buffer unassigned
  /// once every task reached delta.
  Status FlushInternalBatch(std::vector<StreamCommit>* commits);

  void OnTasksRetired() override;

  McfLtcOptions options_;

  /// A resident task's demand node (-1 = none) and whether its deficit
  /// was already zeroed.
  struct TaskDemand {
    flow::NodeId right = -1;
    bool closed = false;
  };

  // The persistent cross-batch solver state, per resident task.
  std::unique_ptr<flow::IncrementalMcmf> incr_;
  IdWindow<TaskDemand> task_demand_;
  // The oldest task that completed with its demand node's deficit not yet
  // zeroed (the next flush's refresh zeroes it), or -1.
  model::TaskId oldest_unzeroed_ = -1;

  // The open internal batch: worker local indices plus their flush-time
  // candidate sets, flattened (worker p's candidates occupy
  // [buf_begin_[p], buf_begin_[p + 1])).
  std::vector<model::WorkerIndex> buf_worker_;
  std::vector<std::size_t> buf_begin_;
  std::vector<model::TaskId> buf_cand_;
  // The smallest id in buf_cand_, or -1 while it is empty.
  model::TaskId buf_oldest_task_ = -1;
  bool first_batch_ = true;
  std::int64_t batches_solved_ = 0;
  std::int64_t augmentations_ = 0;

  // Per-flush scratch, recycled across batches (allocations only on the
  // high-water mark). Worker p's eligible open pairs occupy
  // [pair_begin_[p], pair_begin_[p + 1]).
  std::vector<flow::NodeId> batch_left_;
  std::vector<std::size_t> pair_begin_;
  std::vector<model::TaskId> pair_task_;
  std::vector<double> pair_acc_;
  std::vector<flow::ArcId> pair_arc_;
  std::vector<char> pair_assigned_;
  std::vector<std::int32_t> batch_load_;
  BoundedTopK top_up_{0};
};

}  // namespace algo
}  // namespace ltc

#endif  // LTC_ALGO_MCF_STREAM_H_
