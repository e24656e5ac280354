// The streaming service core (DESIGN.md §8): the options, records and
// metrics of an arrival-driven run, and StreamPipeline — one growing
// instance, one streaming scheduler, one incremental open-task index and
// one micro-batch buffer. ShardedStreamEngine (sharded_engine.h, DESIGN.md
// §9) routes events to one pipeline per spatial shard; at one shard it is
// the whole single-pipeline service.
//
// Where sim::RunOnline replays a fully materialised ProblemInstance, the
// service consumes worker/task *arrival events* (io::Event) one at a time,
// grows each pipeline's ProblemInstance in place — and retires each worker
// from it once its batch committed and the scheduler holds it no longer,
// and each task once it closed and nothing still reads it, so worker and
// task state stay O(open work) (DESIGN.md §8) — maintains an
// **incremental** spatial index over the open tasks (geo::GridIndex dynamic
// mode — tasks are Inserted on arrival, Removed on completion, Relocated on
// "m" events; never rebuilt), and admits workers in micro-batches closed by
// a configurable batching deadline. Each flushed batch is committed through
// the one streaming contract of algo/scheduler.h — one
// OnBatchWithCandidates call per flush, whatever the scheduler — and one
// function records the commitments and closes the tasks they completed.
// Task arrival times live in the engine's router, which derives the
// per-assignment latency (commit time minus the assigned task's arrival
// time) from the assignment log at Finish for sim::RunMetrics.
//
// Determinism contract: every schedule-dependent output — the assignment
// log, per-assignment latencies, completion counts — is a function of
// (event log, options.algorithm, options.seed, options.shards) only. The
// engine thread runs every phase: candidate gathering is a pure read of
// flush-time state into index-addressed slots, and commits happen in
// arrival order within a pipeline.

#ifndef LTC_SVC_STREAM_ENGINE_H_
#define LTC_SVC_STREAM_ENGINE_H_

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "algo/scheduler.h"
#include "common/id_window.h"
#include "common/state_archive.h"
#include "common/status.h"
#include "fcst/arrival_forecast.h"
#include "geo/grid_index.h"
#include "geo/metric.h"
#include "geo/rect.h"
#include "io/event_log.h"
#include "model/problem.h"
#include "model/worker_route.h"
#include "sim/metrics.h"

namespace ltc {
namespace svc {

/// How the batching deadline of an open micro-batch is chosen.
enum class DeadlinePolicy {
  /// Every batch flushes exactly batch_deadline after it opens (the classic
  /// PR-4 behaviour).
  kFixed,
  /// Prediction-driven admission (DESIGN.md §13): batch_deadline becomes a
  /// hard latency cap, and the per-cell arrival forecast the pipeline
  /// maintains (fcst/arrival_forecast.h) positions the flush inside it —
  /// each buffered arrival extends the open batch's flush to its predicted
  /// next-arrival instant (never past the cap), and a quiet cell (expected
  /// wait beyond the cap) flushes the batch immediately. Flush times are a
  /// pure function of the event prefix, so the determinism contract — and
  /// the recovery contract, with forecast state snapshotted — survives.
  kAdaptive,
};

/// DeadlinePolicy::kAdaptive's forecast horizon: the EWMA time constant
/// of the per-cell arrival forecast, in stream time units
/// (fcst::CellRateEstimator::Config::horizon).
constexpr double kForecastHorizon = 8.0;

/// Service configuration.
struct StreamOptions {
  /// Online scheduler: "LAF", "AAM", "Random", or the streaming MCF-LTC
  /// ("MCF", DESIGN.md §10).
  std::string algorithm = "LAF";
  /// A batch flushes once its oldest buffered worker has waited this long
  /// (stream time units). 0 admits every worker immediately — per-arrival
  /// admission, the RunOnline-equivalent setting. Larger deadlines trade
  /// worker waiting time for richer per-batch context. Under
  /// DeadlinePolicy::kAdaptive this is the hard cap (must be > 0).
  double batch_deadline = 0.0;
  /// Deadline policy (kAdaptive = forecast-driven flushes; --deadline=
  /// adaptive in ltc_serve).
  DeadlinePolicy deadline_policy = DeadlinePolicy::kFixed;
  /// Flush early when this many workers are buffered (0 = unbounded).
  std::int64_t max_batch = 0;
  /// Seed forwarded to seeded algorithms (Random). Never derived from
  /// thread identity.
  std::uint64_t seed = 42;
  /// Read by nothing: the engine runs on one thread. Kept only until the
  /// next perfbench change, which stops setting it.
  int threads = 1;
  /// Spatial shards (grid-aligned stripes; DESIGN.md §9); 1 serves the
  /// whole world from one pipeline. The assignment log is pinned per K.
  int shards = 1;
  /// World rectangle fixing the incremental grid's geometry for the
  /// engine's lifetime (arrivals outside it clamp into boundary cells,
  /// which stays correct — see geo/grid_index.h). ReplayEventLog derives
  /// this from the log; the default covers the Table-IV synthetic world.
  geo::Rect world{0.0, 0.0, 1000.0, 1000.0};
  /// Check every commit round against the LTC constraints as it commits,
  /// while its workers are still resident (model::ValidateCommitRound); a
  /// violation fails the flush. The checks stop at the stream's first task
  /// move: MCF commits candidates gathered before it, which the moved
  /// location may no longer make eligible. StreamMetrics::validated
  /// reports whether every commit was checked.
  bool validate = true;
  /// "MCF" only: cross-check every Nth warm batch solve against an
  /// independent from-scratch solve; a divergence fails the flush with an
  /// Internal status (see flow::IncrementalMcmfOptions::drift_check_every).
  /// 0 disables.
  int mcf_drift_check_every = 0;
  /// Route-aware workers (DESIGN.md §12): committed assignments grow a
  /// model::WorkerRoute per worker (cheapest insertion under the accuracy
  /// model's geo::Metric), and the engine emits deterministic worker
  /// `move` events as unit-speed route progress crosses flush boundaries.
  /// Off by default — the assignment log and snapshot bytes are unchanged
  /// when false.
  bool route_workers = false;
};

/// Rejects out-of-range options: a negative or NaN batch_deadline, a
/// non-positive adaptive cap, max_batch < 0, shards < 1,
/// mcf_drift_check_every < 0, or an algorithm that is not an online
/// scheduler. The engine checks this
/// at Create and Restore; ltc_serve and RecoverableService::Open check it
/// before they touch any state, so a bad option is a configuration error.
Status ValidateStreamOptions(const StreamOptions& options);

/// One committed assignment, in commit order — the deterministic record the
/// ltc_serve assignment log serialises. Worker and task are *global*
/// identities (arrival index / dense event-log id) in every mode; sharded
/// pipelines translate from their local ids before emitting.
struct StreamAssignment {
  /// Batch flush (commit) time.
  double time = 0.0;
  model::WorkerIndex worker = 0;
  model::TaskId task = 0;
};

/// One worker-route progress record (route_workers mode only): worker
/// (global arrival index) reached `location` — the stop serving `task` —
/// at stream time `time`. The merged move log is sorted by (time, worker),
/// ties kept in route order, and is a pure function of the same inputs as
/// the assignment log (model/worker_route.h's determinism contract).
struct WorkerMove {
  double time = 0.0;
  model::WorkerIndex worker = 0;
  geo::Point location;
  model::TaskId task = 0;
};

/// Counters and latency distributions of one stream run.
struct StreamMetrics {
  std::int64_t events = 0;
  std::int64_t task_events = 0;
  std::int64_t worker_events = 0;
  std::int64_t move_events = 0;
  std::int64_t batches = 0;
  std::int64_t max_batch_size = 0;
  std::int64_t assignments = 0;
  std::int64_t tasks_completed = 0;
  /// Tasks still short of delta when the stream ended.
  std::int64_t open_tasks = 0;
  double last_event_time = 0.0;
  /// Spatial shards the run was served with (1 = unsharded).
  std::int64_t shards = 1;
  /// Workers whose eligibility disk crossed a stripe edge (offered to more
  /// than one shard under the handoff protocol; 0 when shards == 1).
  std::int64_t boundary_workers = 0;
  /// Shard offers dropped because another shard had already claimed the
  /// worker (one worker can contribute to several skips).
  std::int64_t handoff_skips = 0;
  /// route_workers mode: stops reached (move records emitted) by Finish.
  std::int64_t worker_moves = 0;
  /// route_workers mode: workers holding a route (>= 1 assignment).
  std::int64_t routed_workers = 0;
  /// route_workers mode: total metric travel time over all routes.
  double route_travel_time = 0.0;
  /// Adaptive-deadline mode: batches flushed at an arrival instant because
  /// the local forecast predicted no useful arrival within the cap.
  std::int64_t quiet_flushes = 0;
  /// Adaptive-deadline mode: buffered arrivals that extended an already
  /// open batch's flush instant.
  std::int64_t deadline_extensions = 0;
  /// Commit time minus assigned task's arrival time, per assignment.
  sim::LatencySummary assignment_latency;
  /// Completing commit time minus arrival time, per completed task.
  sim::LatencySummary completion_latency;
  /// True when every commit round was checked (options.validate, tasks
  /// arrived, and no task moved).
  bool validated = false;
};

/// \brief The per-pipeline core: one growing instance, one streaming
/// scheduler, one incremental open-task index, one micro-batch buffer.
///
/// Worker lifetime: a worker's record (instance().workers, its global id,
/// the arrangement's load) stays resident while it is in the open batch or
/// the scheduler holds it (OnlineScheduler::OldestHeldWorker); every commit
/// retires the older ones. Local arrival indices keep counting across
/// retirement (each of these is an IdWindow, common/id_window.h), and
/// routes carry their worker's global index, so nothing reads a retired
/// record.
///
/// Task lifetime: a task's record (instance().tasks, its global id, open
/// flag, S and grid slot, the scheduler's per-task state) stays resident
/// from the oldest open task or the scheduler's oldest held task
/// (OnlineScheduler::OldestHeldTask), whichever is older, on. Commit rounds
/// retire the closed prefix below it once that prefix is as long as the
/// rest, so retirement is amortized O(1) per task. Local task ids keep
/// counting: each of these is an IdWindow too.
///
/// ShardedStreamEngine runs one per shard, side by side. The engine owns
/// event routing and flush scheduling; the pipeline owns every
/// id-translated, shard-local piece of state. Not movable once created
/// (the scheduler holds a pointer into the growing instance).
///
/// Engine-thread-only: every call, including each flush phase, runs on the
/// thread that drives the engine, so no member carries LTC_GUARDED_BY
/// (DESIGN.md §14).
class StreamPipeline {
 public:
  struct Config {
    /// The service options; the pipeline reads the scheduler, batching,
    /// forecast, MCF, route and world settings. options.shards is the
    /// shard count forwarded to the scheduler.
    StreamOptions options;
    /// Shard identity forwarded to the scheduler (0 when unsharded).
    int shard_id = 0;
    /// Cell size for the incremental grid over options.world (the full
    /// world rectangle — shards own a stripe of *tasks*, not a cropped
    /// grid); nullopt = scan fallback.
    std::optional<double> cell_size;
  };

  /// Creates a pipeline for a stream with `header`'s instance parameters.
  static StatusOr<std::unique_ptr<StreamPipeline>> Create(
      const io::EventLog& header, const Config& config);

  /// The pipeline's full logical state as snapshot records (DESIGN.md
  /// §11): the resident task window (tasks at their *current* locations),
  /// the resident worker window, the open micro-batch, counters, the
  /// scheduler's records and, per mode, routes and forecast. The grid
  /// index and the open flags are derived state, rebuilt after a read. Writing
  /// needs empty pending_* buffers (only call between events); reading
  /// needs a pipeline fresh from Create, which then is commitment-for-
  /// commitment indistinguishable from one that lived through the stream
  /// prefix.
  Status Serialize(StateArchive& ar);

  StreamPipeline(const StreamPipeline&) = delete;
  StreamPipeline& operator=(const StreamPipeline&) = delete;

  // --- Stream mutations ---

  /// Appends the task with global id `global_id` arriving at `time`;
  /// returns its local id.
  StatusOr<model::TaskId> AddTask(model::TaskId global_id, double time,
                                  const geo::Point& location);
  /// Relocates local task `local_id` (grid update only while it is open; a
  /// no-op once it retired, since nothing reads it again).
  Status MoveTask(model::TaskId local_id, const geo::Point& location);
  /// Appends the worker (global arrival index `global_index`) and buffers
  /// it into the open batch. *flush_now reports that the batch must flush
  /// at this arrival's instant: it reached options.max_batch, the fixed
  /// deadline is 0 (per-arrival admission), or — adaptive policy — the
  /// forecast predicts no useful arrival within the cap (quiet cell).
  Status BufferWorker(model::WorkerIndex global_index,
                      const geo::Point& location, double accuracy,
                      double time, bool* flush_now);

  // --- Open-batch inspection ---

  bool has_open_batch() const { return !batch_.empty(); }
  /// The instant the open batch is due to flush: open time + the fixed
  /// deadline, or — adaptive policy — the forecast-positioned instant
  /// (open time + cap at most). Meaningful only while has_open_batch().
  double batch_flush_time() const {
    return config_.options.deadline_policy == DeadlinePolicy::kAdaptive
               ? batch_flush_time_
               : batch_open_time_ + config_.options.batch_deadline;
  }
  std::size_t batch_size() const { return batch_.size(); }
  model::WorkerIndex batch_global_worker(std::size_t i) const {
    return worker_global_.at(batch_[i]);
  }

  // --- Flush phases ---

  /// Sizes the gather slots for the open batch, before any GatherSlot.
  void PrepareGather();
  /// Fills slot `i` with batch worker i's eligible open tasks (local ids,
  /// ascending). Pure read of pipeline state.
  void GatherSlot(std::size_t i);
  /// Empties slot `i` (handoff: another shard claimed the worker).
  void ClearSlot(std::size_t i) { gather_slots_[i].clear(); }
  bool SlotEmpty(std::size_t i) const { return gather_slots_[i].empty(); }

  /// Commits the batch at `flush_time`: hands the whole batch, in arrival
  /// order with its gathered slots, to the scheduler's
  /// OnBatchWithCandidates, checks the round when `check` (the engine
  /// passes options.validate until the first task move), records the
  /// commitments (RecordCommits) and retires the decided workers and the
  /// final tasks.
  Status CommitBatch(double flush_time, bool check);

  /// End of stream (engines call it once, after the final batch flush):
  /// drains the scheduler's internally buffered workers (MCF's final
  /// partial Theorem-2 batch; nothing for the per-worker schedulers),
  /// committing at `end_time`, checked like CommitBatch.
  Status CommitStreamEnd(double end_time, bool check);

  // --- Per-round outputs (engine merges after CommitBatch, then clears) ---

  /// Assignments committed by the last CommitBatch, global ids, commit
  /// order.
  std::vector<StreamAssignment>& pending_assignments() {
    return pending_assignments_;
  }
  /// Global ids of tasks closed by the last CommitBatch, at its flush time.
  std::vector<model::TaskId>& pending_closed() { return pending_closed_; }
  /// route_workers mode: moves emitted by the last CommitBatch /
  /// CommitStreamEnd (route progress that crossed the flush instant), in
  /// per-worker route order. Always empty when routing is off.
  std::vector<WorkerMove>& pending_moves() { return pending_moves_; }

  // --- Finish-time accessors ---

  /// The resident task and worker windows (num_tasks() counts every task,
  /// num_workers() resident workers; workers_offered() counts them all).
  const model::ProblemInstance& instance() const { return instance_; }
  /// Workers ever buffered into this pipeline (retired ones included).
  std::int64_t workers_offered() const { return instance_.last_worker(); }
  /// Global id of resident local task `local`.
  model::TaskId task_global(model::TaskId local) const {
    return tasks_.at(local).global;
  }
  /// Whether local task `local` is open (false once retired).
  bool task_open(model::TaskId local) const {
    return tasks_.contains(local) && tasks_.at(local).open;
  }
  const algo::OnlineScheduler& scheduler() const { return *scheduler_; }
  const model::Arrangement& arrangement() const {
    return scheduler_->arrangement();
  }
  std::int64_t batches() const { return batches_; }
  std::int64_t max_batch_size() const { return max_batch_size_; }
  std::int64_t tasks_completed() const { return tasks_completed_; }
  /// Adaptive-deadline mode counters (0 under kFixed).
  std::int64_t quiet_flushes() const { return quiet_flushes_; }
  std::int64_t deadline_extensions() const { return deadline_extensions_; }
  std::int64_t open_tasks() const;
  /// Distinct (local) workers holding at least one assignment.
  std::int64_t workers_used() const {
    return scheduler_->arrangement().workers_used();
  }
  /// route_workers mode: workers holding a route.
  std::int64_t routed_workers() const {
    return static_cast<std::int64_t>(routes_.size());
  }
  /// route_workers mode: total metric travel time over all routes.
  double route_travel_time() const;

 private:
  explicit StreamPipeline(const Config& config) : config_(config) {}

  /// What the pipeline keeps per resident task besides its record.
  struct TaskState {
    model::TaskId global = 0;
    /// Arrived and below delta.
    bool open = false;
  };

  /// The scheduler-independent tail of a commit round: the optional
  /// check, RecordCommits, and the retirement of decided workers and of
  /// final tasks (RetireTasks).
  Status FinishRound(double time, bool check);
  /// Advances the oldest-open cursor past closed tasks, and retires every
  /// task below it and below the scheduler's oldest held task once those
  /// are at least as many as the tasks kept (amortized compaction).
  Status RetireTasks();

  /// route_workers mode: advances every route to `now`, emitting a
  /// WorkerMove per newly reached stop into pending_moves_ (ascending
  /// worker order; the engine's final (time, worker) sort fixes the
  /// global order).
  void AdvanceRoutes(double now);
  /// route_workers mode: grows (or creates, anchored at the worker's
  /// check-in location and `time`) resident local worker `w`'s route,
  /// keyed by its global index, by cheapest insertion of local task `t`.
  /// Cost is measured from the route's insertion point — a second task
  /// committed to the same worker pays the marginal detour, not the
  /// from-origin distance.
  void RouteAssignment(model::WorkerIndex w, model::TaskId t, double time);

  /// Folds one round's commitment list into the pending records at `time`
  /// (assignment log, routes) and closes the tasks it completed — the one
  /// place a task closes.
  void RecordCommits(const std::vector<algo::OnlineScheduler::StreamCommit>&
                         commits,
                     double time);

  Config config_;
  model::ProblemInstance instance_;  // grows in place, retires workers from
                                     // the front; never reallocated as a
                                     // whole (schedulers hold a pointer)
  std::unique_ptr<algo::OnlineScheduler> scheduler_;
  std::optional<geo::GridIndex> grid_;  // open tasks; nullopt = scan fallback
  // Per resident task, the window of instance_.tasks.
  IdWindow<TaskState, model::TaskId> tasks_;
  // Every task below this local id is closed: the oldest-open cursor.
  model::TaskId oldest_open_ = 0;
  // Global index of each resident worker, the window of instance_.workers.
  IdWindow<model::WorkerIndex, model::WorkerIndex> worker_global_{1};

  // Open batch: local worker indices of buffered arrivals.
  std::vector<model::WorkerIndex> batch_;
  double batch_open_time_ = 0.0;
  // Adaptive-deadline state (engaged only under DeadlinePolicy::kAdaptive;
  // DESIGN.md §13). batch_flush_time_ is the open batch's current flush
  // instant, repositioned per buffered arrival and capped at
  // batch_open_time_ + batch_deadline.
  std::optional<fcst::CellRateEstimator> forecast_;
  double batch_flush_time_ = 0.0;
  std::int64_t quiet_flushes_ = 0;
  std::int64_t deadline_extensions_ = 0;

  std::vector<std::vector<model::TaskId>> gather_slots_;
  std::vector<const std::vector<model::TaskId>*> candidate_ptrs_;
  std::vector<algo::OnlineScheduler::StreamCommit> commits_scratch_;
  std::vector<model::TaskId> closing_scratch_;
  std::vector<StreamAssignment> pending_assignments_;
  std::vector<model::TaskId> pending_closed_;
  // Route state (route_workers only; empty otherwise), keyed by global
  // worker index — ascending in arrival order, like the local index, so
  // advancement and serialization are deterministic.
  std::map<model::WorkerIndex, model::WorkerRoute> routes_;
  std::vector<WorkerMove> pending_moves_;
  std::int64_t batches_ = 0;
  std::int64_t max_batch_size_ = 0;
  std::int64_t tasks_completed_ = 0;
};

}  // namespace svc
}  // namespace ltc

#endif  // LTC_SVC_STREAM_ENGINE_H_
