#include "svc/sharded_engine.h"

#include <algorithm>
#include <limits>
#include <utility>

#include "common/container_util.h"
#include "common/string_util.h"
#include "common/timer.h"
#include "geo/metric.h"
#include "geo/point.h"
#include "model/eligibility.h"
#include "model/worker.h"

namespace ltc {
namespace svc {

namespace {

bool DueOrder(const double a_time, const int a_shard, const double b_time,
              const int b_shard) {
  if (a_time != b_time) return a_time < b_time;
  return a_shard < b_shard;
}

}  // namespace

StatusOr<std::unique_ptr<ShardedStreamEngine>> ShardedStreamEngine::Create(
    const io::EventLog& header, const StreamOptions& options) {
  LTC_RETURN_IF_ERROR(ValidateStreamOptions(options));
  if (header.accuracy == nullptr) {
    return Status::InvalidArgument("event log header has no accuracy model");
  }
  std::unique_ptr<ShardedStreamEngine> engine(
      new ShardedStreamEngine(options));
  engine->accuracy_ = header.accuracy;
  engine->acc_min_ = header.acc_min;

  const auto cell =
      model::SpatialPruningCellSize(*header.accuracy, header.acc_min);
  // Stripe edges align with the incremental grids' cell columns. Models
  // without distance structure have no natural cell; the shared helper
  // resolves the fallback (equal stripe-wide columns) so this geometry can
  // never drift from the batch index's.
  const double map_cell = model::StreamingCellSize(
      *header.accuracy, header.acc_min, options.world.Width(),
      options.shards);
  LTC_ASSIGN_OR_RETURN(
      engine->map_,
      geo::ShardMap::Build(options.world, map_cell, options.shards));
  engine->route_flags_.assign(static_cast<std::size_t>(options.shards), 0);

  engine->pipelines_.reserve(static_cast<std::size_t>(options.shards));
  for (int s = 0; s < options.shards; ++s) {
    LTC_ASSIGN_OR_RETURN(
        auto pipeline,
        StreamPipeline::Create(header,
                               StreamPipeline::Config{options, s, cell}));
    engine->pipelines_.push_back(std::move(pipeline));
  }
  return engine;
}

Status ShardedStreamEngine::SerializeTo(std::string* out) const {
  if (finished_) {
    return Status::FailedPrecondition("SerializeTo after Finish");
  }
  StateArchive ar = StateArchive::Writer(out);
  // A writer archive only reads the fields Serialize declares.
  return const_cast<ShardedStreamEngine*>(this)->Serialize(ar);
}

StatusOr<std::unique_ptr<ShardedStreamEngine>> ShardedStreamEngine::Restore(
    const io::EventLog& header, const StreamOptions& options,
    const std::string& engine_state) {
  LTC_ASSIGN_OR_RETURN(auto engine, Create(header, options));
  StateArchive ar = StateArchive::Reader(engine_state);
  LTC_RETURN_IF_ERROR(engine->Serialize(ar));
  LTC_RETURN_IF_ERROR(ar.End());
  return engine;
}

Status ShardedStreamEngine::Serialize(StateArchive& ar) {
  std::int64_t shards = num_shards();
  LTC_RETURN_IF_ERROR(ar.Record("shards", NonNeg(&shards)));
  if (shards != num_shards()) {
    return Status::InvalidArgument(StrFormat(
        "snapshot taken with %lld shards; the service is configured for %d "
        "(restore requires an identical topology)",
        static_cast<long long>(shards), num_shards()));
  }
  LTC_RETURN_IF_ERROR(ar.Record("clock", Real(&last_event_time_)));
  LTC_RETURN_IF_ERROR(ar.Record(
      "counters", NonNeg(&metrics_.events), NonNeg(&metrics_.task_events),
      NonNeg(&metrics_.worker_events), NonNeg(&metrics_.move_events),
      NonNeg(&metrics_.boundary_workers), NonNeg(&metrics_.handoff_skips)));
  const std::int64_t workers = metrics_.worker_events;

  auto tasks = static_cast<std::int64_t>(task_route_.size());
  LTC_RETURN_IF_ERROR(ar.Record("tasks", Count(&tasks)));
  if (tasks != metrics_.task_events) {
    return Status::InvalidArgument("snapshot: tasks disagree with counters");
  }
  task_route_.resize(static_cast<std::size_t>(tasks));  // no-op writing
  task_open_.resize(task_route_.size());
  task_arrival_.resize(task_route_.size());
  for (std::size_t t = 0; t < task_route_.size(); ++t) {
    LTC_RETURN_IF_ERROR(ar.Record(
        "r", Index(&task_route_[t].shard, 0, shards - 1),
        Index(&task_route_[t].local, 0,
              std::numeric_limits<model::TaskId>::max()),
        Bit(&task_open_[t]), Real(&task_arrival_[t])));
  }

  // Hash-map state in sorted key order (snapshot bytes must not depend on
  // iteration order), so reading requires ascending keys.
  std::vector<model::TaskId> displaced = SortedKeys(displaced_);
  auto n = static_cast<std::int64_t>(displaced.size());
  LTC_RETURN_IF_ERROR(ar.Record("displaced", Count(&n)));
  displaced.resize(static_cast<std::size_t>(n));
  for (std::size_t i = 0; i < displaced.size(); ++i) {
    Displaced d = ar.writing() ? displaced_.at(displaced[i]) : Displaced{};
    LTC_RETURN_IF_ERROR(ar.Record(
        "d", Index(&displaced[i], i > 0 ? displaced[i - 1] + 1 : 0, tasks - 1),
        Index(&d.owner, 0, shards - 1), Real(&d.location.x),
        Real(&d.location.y)));
    if (ar.reading()) displaced_.emplace(displaced[i], d);
  }
  // A live claim still awaits 1..K offers (a worker is offered to each
  // shard at most once, and entries retire at 0).
  std::vector<model::WorkerIndex> claimed = SortedKeys(claims_);
  n = static_cast<std::int64_t>(claimed.size());
  LTC_RETURN_IF_ERROR(ar.Record("claims", Count(&n)));
  claimed.resize(static_cast<std::size_t>(n));
  for (std::size_t i = 0; i < claimed.size(); ++i) {
    Claim c = ar.writing() ? claims_.at(claimed[i]) : Claim{};
    LTC_RETURN_IF_ERROR(ar.Record(
        "c", Index(&claimed[i], i > 0 ? claimed[i - 1] + 1 : 1, workers),
        Index(&c.shard, -1, shards - 1), Index(&c.remaining, 1, shards)));
    if (ar.reading()) claims_.emplace(claimed[i], c);
  }

  // The merged assignment log: a restarted server re-renders the *complete*
  // log, so the prefix committed before the snapshot rides along.
  n = static_cast<std::int64_t>(assignments_.size());
  LTC_RETURN_IF_ERROR(ar.Record("log", Count(&n)));
  assignments_.resize(static_cast<std::size_t>(n));
  for (StreamAssignment& a : assignments_) {
    LTC_RETURN_IF_ERROR(ar.Record("A", Real(&a.time),
                                  Index(&a.worker, 1, workers),
                                  Index(&a.task, 0, tasks - 1)));
    // Derived (unchanged when writing).
    max_assigned_worker_ = std::max(max_assigned_worker_, a.worker);
  }
  metrics_.assignments = n;
  // The merged move log, route_workers mode only — the default snapshot
  // bytes stay exactly the pre-routing format.
  if (options_.route_workers) {
    n = static_cast<std::int64_t>(moves_.size());
    LTC_RETURN_IF_ERROR(ar.Record("moves", Count(&n)));
    moves_.resize(static_cast<std::size_t>(n));
    for (WorkerMove& m : moves_) {
      LTC_RETURN_IF_ERROR(ar.Record(
          "M", Real(&m.time), Index(&m.worker, 1, workers),
          Real(&m.location.x), Real(&m.location.y),
          Index(&m.task, 0, tasks - 1)));
    }
  }

  // Completion latency samples (metrics parity across restarts, not
  // schedule inputs); assignment latencies are derived at Finish.
  n = static_cast<std::int64_t>(completion_samples_.size());
  LTC_RETURN_IF_ERROR(ar.Record("plat_c", Count(&n)));
  completion_samples_.resize(static_cast<std::size_t>(n));
  for (double& v : completion_samples_) {
    LTC_RETURN_IF_ERROR(ar.Record("l", Real(&v)));
  }

  for (int s = 0; s < num_shards(); ++s) {
    int shard = s;
    LTC_RETURN_IF_ERROR(ar.Record("pipeline", Index(&shard, s, s)));
    LTC_RETURN_IF_ERROR(pipelines_[static_cast<std::size_t>(s)]->Serialize(ar));
  }
  if (ar.writing()) return Status::OK();
  // Reading, the router and the pipelines must describe the same tasks
  // (MergePending, HandleTaskMove and RouteWorker index the router tables
  // by these ids): in global order each shard's entries name its local ids
  // 0, 1, 2, ... up to its task count; an entry below the shard's retired
  // count is closed, and any other routes back from the pipeline's global
  // id with the same open flag.
  std::vector<model::TaskId> next_local(pipelines_.size(), 0);
  for (std::size_t g = 0; g < task_route_.size(); ++g) {
    const TaskRoute route = task_route_[g];
    const StreamPipeline& p =
        *pipelines_[static_cast<std::size_t>(route.shard)];
    const model::TaskId local =
        next_local[static_cast<std::size_t>(route.shard)]++;
    if (route.local != local || local >= p.instance().num_tasks() ||
        (p.instance().task_resident(local) &&
         p.task_global(local) != static_cast<model::TaskId>(g)) ||
        (task_open_[g] != 0) != p.task_open(local)) {
      return Status::OutOfRange(StrFormat(
          "snapshot: router task %zu (shard %d, local %d) disagrees with the "
          "pipeline", g, route.shard, route.local));
    }
  }
  for (int s = 0; s < num_shards(); ++s) {
    if (next_local[static_cast<std::size_t>(s)] !=
        pipelines_[static_cast<std::size_t>(s)]->instance().num_tasks()) {
      return Status::OutOfRange("snapshot: pipeline tasks the router lacks");
    }
  }
  return Status::OK();
}

Status ShardedStreamEngine::OnEvent(const io::Event& event) {
  if (finished_) {
    return Status::FailedPrecondition("OnEvent after Finish");
  }
  if (!(event.time >= last_event_time_)) {  // also rejects a NaN time
    return Status::InvalidArgument(
        StrFormat("event time %g precedes the stream clock %g", event.time,
                  last_event_time_));
  }
  LTC_RETURN_IF_ERROR(FlushExpired(event.time));
  last_event_time_ = event.time;
  ++metrics_.events;
  switch (event.kind) {
    case io::Event::Kind::kTaskArrival:
      return HandleTaskArrival(event);
    case io::Event::Kind::kWorkerArrival:
      return HandleWorkerArrival(event);
    case io::Event::Kind::kTaskMove:
      return HandleTaskMove(event);
  }
  return Status::InvalidArgument("unknown event kind");
}

Status ShardedStreamEngine::HandleTaskArrival(const io::Event& event) {
  const auto gid = static_cast<model::TaskId>(task_route_.size());
  const int shard = map_.ShardOf(event.location);
  LTC_ASSIGN_OR_RETURN(
      const model::TaskId local,
      pipelines_[static_cast<std::size_t>(shard)]->AddTask(gid, event.time,
                                                           event.location));
  task_route_.push_back(TaskRoute{shard, local});
  task_open_.push_back(1);
  task_arrival_.push_back(event.time);
  ++metrics_.task_events;
  return Status::OK();
}

Status ShardedStreamEngine::HandleWorkerArrival(const io::Event& event) {
  ++metrics_.worker_events;
  const auto global_index =
      static_cast<model::WorkerIndex>(metrics_.worker_events);

  // Route set: every stripe the eligibility disk intersects, plus the
  // owner shard of any displaced open task within reach. No distance
  // structure means no disk — the worker is offered everywhere. A single
  // stripe owns every task and displaces none: its route set is {0}.
  if (num_shards() == 1) {
    route_flags_[0] = 1;
  } else {
    RouteWorker(event);
  }

  int route_count = 0;
  due_.clear();
  for (int s = 0; s < num_shards(); ++s) {
    if (!route_flags_[static_cast<std::size_t>(s)]) continue;
    ++route_count;
    bool flush_now = false;
    LTC_RETURN_IF_ERROR(pipelines_[static_cast<std::size_t>(s)]->BufferWorker(
        global_index, event.location, event.accuracy, event.time,
        &flush_now));
    if (flush_now) due_.emplace_back(event.time, s);
  }
  if (route_count > 1) {
    claims_.emplace(global_index, Claim{-1, route_count});
    ++metrics_.boundary_workers;
  }
  return RunRound();
}

void ShardedStreamEngine::RouteWorker(const io::Event& event) {
  std::fill(route_flags_.begin(), route_flags_.end(), 0);
  model::Worker probe;
  probe.location = event.location;
  probe.historical_accuracy = event.accuracy;
  const auto radius = accuracy_->EligibleRadius(probe, acc_min_);
  if (!radius.has_value()) {
    std::fill(route_flags_.begin(), route_flags_.end(), 1);
    return;
  }
  const double r = std::max(0.0, *radius);
  int lo = 0;
  int hi = 0;
  map_.ShardRange(event.location, r, &lo, &hi);
  for (int s = lo; s <= hi; ++s) {
    route_flags_[static_cast<std::size_t>(s)] = 1;
  }
  const geo::Metric& metric = *accuracy_->DistanceMetric();
  const double r2 = r * r;
  for (const auto& [task, displaced] : displaced_) {
    if (!task_open_[static_cast<std::size_t>(task)]) continue;
    if (route_flags_[static_cast<std::size_t>(displaced.owner)]) continue;
    // The radius is in metric units; reachability of a displaced task is a
    // metric-ball test (the Euclidean fast path avoids the sqrt and any
    // virtual hop on the default backend).
    const bool in_reach =
        metric.euclidean()
            ? geo::SquaredDistance(displaced.location, event.location) <= r2
            : metric.Distance(event.location, displaced.location) <= r;
    if (in_reach) {
      route_flags_[static_cast<std::size_t>(displaced.owner)] = 1;
    }
  }
}

Status ShardedStreamEngine::HandleTaskMove(const io::Event& event) {
  if (event.task < 0 ||
      static_cast<std::size_t>(event.task) >= task_route_.size()) {
    return Status::InvalidArgument(
        StrFormat("move event references unknown task %d", event.task));
  }
  const TaskRoute route = task_route_[static_cast<std::size_t>(event.task)];
  LTC_RETURN_IF_ERROR(pipelines_[static_cast<std::size_t>(route.shard)]
                          ->MoveTask(route.local, event.location));
  ++metrics_.move_events;
  if (task_open_[static_cast<std::size_t>(event.task)]) {
    // Ownership is fixed at arrival; a task that crossed a stripe edge is
    // tracked so boundary routing can still reach its owner shard.
    const int home = map_.ShardOf(event.location);
    if (home != route.shard) {
      displaced_[event.task] = Displaced{route.shard, event.location};
    } else {
      displaced_.erase(event.task);
    }
  }
  return Status::OK();
}

Status ShardedStreamEngine::FlushExpired(double now) {
  due_.clear();
  for (int s = 0; s < num_shards(); ++s) {
    const StreamPipeline& p = *pipelines_[static_cast<std::size_t>(s)];
    if (!p.has_open_batch()) continue;
    // Commit at the instant the batch fell due, not at whichever event
    // happened to arrive next: the service would have flushed the moment
    // the deadline ran out. The pipeline owns its flush instant — fixed
    // deadline or the forecast-positioned adaptive one.
    const double flush_time = p.batch_flush_time();
    if (now >= flush_time) due_.emplace_back(flush_time, s);
  }
  return RunRound();
}

Status ShardedStreamEngine::RunRound() {
  if (due_.empty()) return Status::OK();
  std::vector<DueFlush>& due = due_;
  std::sort(due.begin(), due.end(), [](const DueFlush& a, const DueFlush& b) {
    return DueOrder(a.time, a.shard, b.time, b.shard);
  });
  // Claim entries exist only for in-flight multi-shard workers, and none
  // is added during a round; with none (always so at one shard) both claim
  // passes below are skipped.
  const bool claims_live = !claims_.empty();

  // Phase 1 — gather, all due shards first: commits of one shard never
  // touch another shard's open tasks and no event separates the due flush
  // instants, so every slot reads exactly its flush-time state. Workers
  // already claimed by another shard in an earlier round skip the query.
  for (const DueFlush& f : due) {
    StreamPipeline& p = *pipelines_[static_cast<std::size_t>(f.shard)];
    p.PrepareGather();
    for (std::size_t i = 0; i < p.batch_size(); ++i) {
      if (claims_live) {
        const auto it = claims_.find(p.batch_global_worker(i));
        if (it != claims_.end() && it->second.shard != -1) {
          p.ClearSlot(i);  // lost in an earlier round; resolution counts it
          continue;
        }
      }
      p.GatherSlot(i);
    }
  }

  // Phase 2 — claim resolution, in key order: the first shard offering a
  // non-empty candidate set claims the worker; later offers are dropped
  // before commit. A pure function of the gathered slots and the table
  // state left by earlier rounds.
  if (claims_live) {
    for (const DueFlush& f : due) {
      StreamPipeline& p = *pipelines_[static_cast<std::size_t>(f.shard)];
      for (std::size_t i = 0; i < p.batch_size(); ++i) {
        const auto it = claims_.find(p.batch_global_worker(i));
        if (it == claims_.end()) continue;  // single-shard worker
        Claim& claim = it->second;
        if (claim.shard == -1) {
          if (!p.SlotEmpty(i)) claim.shard = f.shard;
        } else if (claim.shard != f.shard) {
          p.ClearSlot(i);
          ++metrics_.handoff_skips;
        }
        // This was the worker's one offer from shard f; once every offered
        // shard has flushed it the decision is final and the entry retires.
        if (--claim.remaining == 0) claims_.erase(it);
      }
    }
  }

  // Phase 3 — commit, in key order (a pipeline's commit touches only
  // shard-local state).
  const bool check = CheckCommits();
  for (const DueFlush& f : due) {
    LTC_RETURN_IF_ERROR(
        pipelines_[static_cast<std::size_t>(f.shard)]->CommitBatch(f.time,
                                                                   check));
  }

  // Phase 4 — merge, sequential in the same key order: one deterministic
  // global log, closure bookkeeping for the router.
  for (const DueFlush& f : due) {
    MergePending(pipelines_[static_cast<std::size_t>(f.shard)].get(), f.time);
  }
  return Status::OK();
}

void ShardedStreamEngine::MergePending(StreamPipeline* p, double time) {
  for (const StreamAssignment& a : p->pending_assignments()) {
    assignments_.push_back(a);
    max_assigned_worker_ = std::max(max_assigned_worker_, a.worker);
    ++metrics_.assignments;
  }
  p->pending_assignments().clear();
  for (const model::TaskId task : p->pending_closed()) {
    const auto g = static_cast<std::size_t>(task);
    task_open_[g] = 0;
    completion_samples_.push_back(time - task_arrival_[g]);
    displaced_.erase(task);
  }
  p->pending_closed().clear();
  for (const WorkerMove& m : p->pending_moves()) moves_.push_back(m);
  p->pending_moves().clear();
}

StatusOr<StreamMetrics> ShardedStreamEngine::Finish() {
  if (finished_) {
    return Status::FailedPrecondition("Finish called twice");
  }
  due_.clear();
  double end_time = last_event_time_;
  for (int s = 0; s < num_shards(); ++s) {
    const StreamPipeline& p = *pipelines_[static_cast<std::size_t>(s)];
    if (!p.has_open_batch()) continue;
    // The service waits out the deadline for the final stragglers.
    due_.emplace_back(p.batch_flush_time(), s);
    end_time = std::max(end_time, due_.back().time);
  }
  LTC_RETURN_IF_ERROR(RunRound());

  // Batch schedulers may still hold a partial Theorem-2 batch per shard;
  // drain them sequentially in shard order — one deterministic tail for the
  // global log, merged exactly like a round's phase 4.
  for (const auto& pipeline : pipelines_) {
    LTC_RETURN_IF_ERROR(pipeline->CommitStreamEnd(end_time, CheckCommits()));
    MergePending(pipeline.get(), end_time);
  }
  finished_ = true;

  // One deterministic global move order; stable so equal (time, worker)
  // keys — zero-length legs — keep their route order.
  std::stable_sort(moves_.begin(), moves_.end(),
                   [](const WorkerMove& a, const WorkerMove& b) {
                     if (a.time != b.time) return a.time < b.time;
                     return a.worker < b.worker;
                   });
  metrics_.worker_moves = static_cast<std::int64_t>(moves_.size());
  metrics_.last_event_time = last_event_time_;
  metrics_.shards = num_shards();
  for (const auto& pipeline : pipelines_) {
    metrics_.batches += pipeline->batches();
    metrics_.max_batch_size =
        std::max(metrics_.max_batch_size, pipeline->max_batch_size());
    metrics_.tasks_completed += pipeline->tasks_completed();
    metrics_.open_tasks += pipeline->open_tasks();
    metrics_.routed_workers += pipeline->routed_workers();
    metrics_.route_travel_time += pipeline->route_travel_time();
    metrics_.quiet_flushes += pipeline->quiet_flushes();
    metrics_.deadline_extensions += pipeline->deadline_extensions();
  }
  // An assignment's latency is its commit time minus its task's arrival.
  std::vector<double> assignment_samples;
  assignment_samples.reserve(assignments_.size());
  for (const StreamAssignment& a : assignments_) {
    assignment_samples.push_back(
        a.time - task_arrival_[static_cast<std::size_t>(a.task)]);
  }
  metrics_.assignment_latency = sim::SummarizeLatencies(&assignment_samples);
  metrics_.completion_latency = sim::SummarizeLatencies(&completion_samples_);

  // Every commit round was checked as it committed (CheckCommits).
  metrics_.validated = CheckCommits() && metrics_.task_events > 0;
  return metrics_;
}

double ShardedStreamEngine::total_acc_star() const {
  double total = 0.0;
  for (const auto& pipeline : pipelines_) {
    total += pipeline->arrangement().total_acc_star();
  }
  return total;
}

std::int64_t ShardedStreamEngine::workers_used() const {
  std::int64_t used = 0;
  for (const auto& pipeline : pipelines_) {
    used += pipeline->workers_used();
  }
  return used;
}

sim::RunMetrics ShardedStreamEngine::RunMetricsView(
    double runtime_seconds) const {
  sim::RunMetrics run;
  run.algorithm = options_.algorithm;
  run.latency = max_assigned_worker_;
  run.completed = metrics_.tasks_completed == metrics_.task_events;
  run.runtime_seconds = runtime_seconds;
  run.assignment_latency = metrics_.assignment_latency;
  run.stats.workers_seen = metrics_.worker_events;
  run.stats.assignments = metrics_.assignments;
  run.stats.total_acc_star = total_acc_star();
  run.stats.workers_used = workers_used();
  return run;
}

StatusOr<ReplayResult> ReplayEventLog(
    const io::EventLog& log, const StreamOptions& options,
    std::vector<StreamAssignment>* assignments_out,
    std::vector<WorkerMove>* moves_out) {
  LTC_RETURN_IF_ERROR(log.Validate());
  StreamOptions resolved = options;
  // The replay knows the whole log, so fix the grid geometry to cover every
  // location it will ever see (union with the configured world).
  for (const io::Event& e : log.events) {
    resolved.world.min_x = std::min(resolved.world.min_x, e.location.x);
    resolved.world.min_y = std::min(resolved.world.min_y, e.location.y);
    resolved.world.max_x = std::max(resolved.world.max_x, e.location.x);
    resolved.world.max_y = std::max(resolved.world.max_y, e.location.y);
  }

  Stopwatch watch;
  LTC_ASSIGN_OR_RETURN(auto engine, ShardedStreamEngine::Create(log, resolved));
  for (const io::Event& e : log.events) {
    LTC_RETURN_IF_ERROR(engine->OnEvent(e));
  }
  ReplayResult result;
  LTC_ASSIGN_OR_RETURN(result.stream, engine->Finish());
  result.run = engine->RunMetricsView(watch.ElapsedSeconds());
  if (assignments_out != nullptr) *assignments_out = engine->assignments();
  if (moves_out != nullptr) *moves_out = engine->worker_moves();
  return result;
}

}  // namespace svc
}  // namespace ltc
