// The streaming service engine (DESIGN.md §8–§9): K independent
// StreamPipeline instances over grid-aligned stripes of the world, one
// event router, and a boundary-handoff protocol that keeps assignment
// quality at stripe edges on par with a single pipeline. K = 1 is the
// unsharded service: one pipeline, no routing and no claims.
//
// Routing. Task arrivals go to exactly one shard — the stripe owning their
// location (geo::ShardMap, whose stripe edges are GridIndex cell
// boundaries). Worker arrivals are offered to *every* shard whose stripe
// their eligibility disk intersects (the cross-shard radius query), so a
// worker standing near an edge still sees the open tasks just across it.
// Tasks that relocate across a stripe edge stay owned by their original
// shard; the router tracks these displaced tasks and widens the route set
// of any worker whose disk covers one.
//
// Handoff / claim. A multi-shard worker must not be spent twice. Shards
// flush in globally deterministic (flush_time, shard_id) key order; at
// each flush the router resolves claims sequentially in that order: the
// first shard whose gathered candidate set for the worker is non-empty
// claims it (per-worker entry in a shared claim table), and every later
// offer of that worker is dropped before commit. Entries count their
// outstanding offers and are retired once every offered shard has flushed
// the worker, so the table stays bounded by in-flight boundary workers.
// Single-shard workers never touch the table.
//
// Determinism. Every schedule-dependent output is a pure function of
// (event log, algorithm, seed, shards): gathers land in per-slot buffers,
// claim resolution is sequential in key order, per-shard commits touch
// only shard-local state, and the per-shard assignment records are merged
// into one log in the same key order. `ltc_serve --shards=K --threads=T`
// therefore emits a byte-identical log for any T, and a pinned log per K.

#ifndef LTC_SVC_SHARDED_ENGINE_H_
#define LTC_SVC_SHARDED_ENGINE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "common/thread_pool.h"
#include "geo/shard_map.h"
#include "io/event_log.h"
#include "sim/metrics.h"
#include "svc/stream_engine.h"

namespace ltc {
namespace svc {

/// \brief The event-driven micro-batch admission engine: a K-shard event
/// router and flush coordinator. Create accepts options.shards >= 1; at
/// shards == 1 every worker goes to the one pipeline and the claim table
/// stays empty (tests/svc_shard_test pins that run's logs as golden bytes).
///
/// Not movable once created: each pipeline's scheduler holds a pointer into
/// that pipeline's growing instance, so Create hands out a unique_ptr.
///
/// Engine-thread-only, including the cross-shard claim tables: workers fan
/// out through the pool only inside phases where the engine thread blocks
/// on their futures and pipelines touch disjoint state, so there is no
/// lock and no LTC_GUARDED_BY surface here by design (DESIGN.md §14).
class ShardedStreamEngine {
 public:
  static StatusOr<std::unique_ptr<ShardedStreamEngine>> Create(
      const io::EventLog& header, const StreamOptions& options);

  /// Serializes the engine's full logical state (DESIGN.md §11): the stream
  /// clock and event counters, the router tables (task routes, open flags
  /// and arrival times, displaced tasks, the claim table — map entries in
  /// sorted key order so snapshot bytes are deterministic), the merged
  /// assignment log (restarts re-render the complete log byte-for-byte),
  /// the completion latency samples, and every pipeline's records. Only
  /// call between events.
  Status SerializeTo(std::string* out) const;

  /// Counterpart of SerializeTo: Creates an engine from the same header
  /// and options the original was created with and reads the snapshot
  /// through the same Serialize, so it continues the stream exactly where
  /// the snapshot left off
  /// (svc_recovery_test pins the byte-identity of the resulting assignment
  /// log). The ShardMap geometry is derived from (header, options) —
  /// snapshots only restore into an identically configured service.
  /// InvalidArgument or OutOfRange for any state the writer cannot emit.
  static StatusOr<std::unique_ptr<ShardedStreamEngine>> Restore(
      const io::EventLog& header, const StreamOptions& options,
      const std::string& engine_state);

  ShardedStreamEngine(const ShardedStreamEngine&) = delete;
  ShardedStreamEngine& operator=(const ShardedStreamEngine&) = delete;

  /// Consumes one event. Times must be non-decreasing across calls; due
  /// shard flushes are committed (in key order) before the event applies.
  Status OnEvent(const io::Event& event);

  /// Flushes every open batch at its deadline and merges per-shard
  /// metrics. Call once.
  StatusOr<StreamMetrics> Finish();

  /// The merged assignment log: per-shard commit records interleaved in
  /// deterministic (flush_time, shard_id) key order.
  const std::vector<StreamAssignment>& assignments() const {
    return assignments_;
  }
  /// route_workers mode: the merged worker-move log, sorted (time, worker)
  /// after Finish (a worker commits in at most one shard, so its route —
  /// and its moves — live in exactly one pipeline). Empty when off.
  const std::vector<WorkerMove>& worker_moves() const { return moves_; }
  /// Largest global arrival index holding an assignment (the MinMax
  /// latency objective of the merged run).
  model::WorkerIndex max_assigned_worker() const {
    return max_assigned_worker_;
  }
  /// Sum of Acc* over all shards' assignments: each pipeline's running
  /// sum in commit order (model::Arrangement::total_acc_star), summed in
  /// shard order.
  double total_acc_star() const;
  /// Distinct workers holding at least one assignment (the claim table
  /// guarantees a worker commits in at most one shard).
  std::int64_t workers_used() const;
  /// The sim::RunMetrics view of the finished run (call after Finish):
  /// latency = max assigned worker index, completed = every arrived task
  /// reached delta, the per-assignment latency summary and schedule stats,
  /// and `runtime_seconds` as measured by the caller.
  sim::RunMetrics RunMetricsView(double runtime_seconds) const;

  int num_shards() const { return static_cast<int>(pipelines_.size()); }
  /// The stream clock: time of the latest applied event (0 before any).
  double last_event_time() const { return last_event_time_; }
  const StreamPipeline& pipeline(int shard) const {
    return *pipelines_[static_cast<std::size_t>(shard)];
  }
  const geo::ShardMap& shard_map() const { return map_; }

 private:
  /// One due shard flush; rounds process these sorted by (time, shard).
  /// Built in place (due_.emplace_back): copying a braced temporary into
  /// the vector moves it as one 16-byte block, and RunRound's narrower
  /// reads of that fresh block defeat store forwarding — on an x86 Xeon
  /// that cost ~10% of K = 1 events/sec at deadline 0.
  struct DueFlush {
    DueFlush(double flush_time, int flush_shard)
        : time(flush_time), shard(flush_shard) {}
    double time;
    int shard;
  };
  /// Claim-table entry of a multi-shard worker. `remaining` counts the
  /// offered shards that have not flushed the worker yet; when it hits 0
  /// the entry is retired, so the table stays bounded by *in-flight*
  /// boundary workers rather than growing with the whole stream.
  struct Claim {
    int shard = -1;     // claiming shard, -1 while unclaimed
    int remaining = 0;  // offers still outstanding
  };
  /// An open task whose current location crossed out of its owner stripe.
  struct Displaced {
    int owner = 0;
    geo::Point location;
  };
  /// Router record of a task: owning shard and shard-local id.
  struct TaskRoute {
    int shard = 0;
    model::TaskId local = 0;
  };

  explicit ShardedStreamEngine(const StreamOptions& options)
      : options_(options) {}

  /// The engine's records (SerializeTo's layout). Reading requires an
  /// engine fresh from Create, and checks the router against the
  /// pipelines' tasks (ids, routes, open flags; OutOfRange otherwise).
  Status Serialize(StateArchive& ar);

  Status HandleTaskArrival(const io::Event& event);
  Status HandleWorkerArrival(const io::Event& event);
  /// Multi-shard routing: sets route_flags_ to the worker's route set.
  void RouteWorker(const io::Event& event);
  Status HandleTaskMove(const io::Event& event);

  /// Collects every shard whose batch deadline expired at or before `now`
  /// and runs them as one round.
  Status FlushExpired(double now);
  /// One flush round over due_ (sorted here into key order): parallel
  /// gather, sequential claim resolution, parallel per-shard commit,
  /// sequential merge.
  Status RunRound();
  /// Folds `p`'s pending records, committed at `time`, into the merged
  /// logs, the router's open/displaced bookkeeping and the completion
  /// latency samples, then clears them.
  void MergePending(StreamPipeline* p, double time);
  /// Whether commit rounds are checked (StreamOptions::validate): on until
  /// the stream's first task move.
  bool CheckCommits() const {
    return options_.validate && metrics_.move_events == 0;
  }

  StreamOptions options_;
  geo::ShardMap map_;
  /// Header parameters the router needs for eligibility-disk routing.
  std::shared_ptr<const model::AccuracyFunction> accuracy_;
  double acc_min_ = model::kDefaultAccMin;
  std::vector<std::unique_ptr<StreamPipeline>> pipelines_;

  // Router state, engine thread only (gather threads read claims_ and the
  // pipelines' const state while the engine thread is blocked on futures).
  std::vector<TaskRoute> task_route_;  // by global task id
  std::vector<char> task_open_;        // by global task id
  std::vector<double> task_arrival_;   // by global task id
  std::unordered_map<model::TaskId, Displaced> displaced_;
  std::unordered_map<model::WorkerIndex, Claim> claims_;
  std::vector<char> route_flags_;      // scratch: shard membership per event
  std::vector<DueFlush> due_;          // scratch: the next round's flushes

  std::vector<StreamAssignment> assignments_;
  std::vector<WorkerMove> moves_;
  // Close time minus arrival time, one per closed task, in merge order.
  std::vector<double> completion_samples_;
  model::WorkerIndex max_assigned_worker_ = 0;
  StreamMetrics metrics_;
  double last_event_time_ = 0.0;
  bool finished_ = false;

  // Declared last so it is destroyed first (drains before the pipelines and
  // router state above die); every round also consumes all its futures.
  std::unique_ptr<ThreadPool> pool_;  // fan-out (threads > 1 only)
};

/// What ReplayEventLog reports.
struct ReplayResult {
  StreamMetrics stream;
  /// The sim::RunMetrics view (ShardedStreamEngine::RunMetricsView); its
  /// runtime covers engine creation, every event and Finish.
  sim::RunMetrics run;
};

/// Replays a whole event log through a fresh ShardedStreamEngine with
/// options.shards shards, and finishes it. The grid geometry is fixed to
/// the smallest rectangle holding both options.world and every location
/// the log contains. When `assignments_out` is non-null it receives the
/// deterministic assignment record; `moves_out` likewise receives the
/// worker-move log (empty unless options.route_workers).
StatusOr<ReplayResult> ReplayEventLog(
    const io::EventLog& log, const StreamOptions& options,
    std::vector<StreamAssignment>* assignments_out = nullptr,
    std::vector<WorkerMove>* moves_out = nullptr);

}  // namespace svc
}  // namespace ltc

#endif  // LTC_SVC_SHARDED_ENGINE_H_
