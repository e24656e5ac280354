#include "svc/stream_engine.h"

#include <algorithm>
#include <functional>
#include <future>
#include <limits>
#include <utility>

#include "algo/mcf_stream.h"
#include "algo/registry.h"
#include "common/string_util.h"

namespace ltc {
namespace svc {

Status ConsumeFutures(std::vector<std::future<void>>* futures,
                      const char* what) {
  Status status = Status::OK();
  for (auto& f : *futures) {
    try {
      f.get();
    } catch (const std::exception& e) {
      if (status.ok()) {
        status = Status::Internal(std::string(what) + " task threw: " +
                                  e.what());
      }
    }
  }
  return status;
}

// --- StreamPipeline -------------------------------------------------------

Status ValidateStreamOptions(const StreamOptions& options) {
  if (!(options.batch_deadline >= 0.0)) {
    return Status::InvalidArgument("batch_deadline must be >= 0");
  }
  if (options.deadline_policy == DeadlinePolicy::kAdaptive &&
      !(options.batch_deadline > 0.0)) {
    return Status::InvalidArgument(
        "adaptive deadline policy needs a positive cap (batch_deadline)");
  }
  if (options.max_batch < 0) {
    return Status::InvalidArgument("max_batch must be >= 0");
  }
  if (options.shards < 1) {
    return Status::InvalidArgument("shards must be >= 1");
  }
  if (options.threads < 0) {
    return Status::InvalidArgument("threads must be >= 0");
  }
  if (options.mcf_drift_check_every < 0) {
    return Status::InvalidArgument("mcf_drift_check_every must be >= 0");
  }
  LTC_ASSIGN_OR_RETURN(bool online,
                       algo::IsOnlineAlgorithm(options.algorithm));
  if (!online) {
    return Status::InvalidArgument(
        "streaming admission drives online schedulers; '" +
        options.algorithm + "' is offline");
  }
  return Status::OK();
}

StatusOr<std::unique_ptr<StreamPipeline>> StreamPipeline::Create(
    const io::EventLog& header, const Config& config) {
  if (header.accuracy == nullptr) {
    return Status::InvalidArgument("event log header has no accuracy model");
  }
  std::unique_ptr<StreamPipeline> pipeline(new StreamPipeline(config));
  pipeline->instance_.epsilon = header.epsilon;
  pipeline->instance_.capacity = header.capacity;
  pipeline->instance_.acc_min = header.acc_min;
  pipeline->instance_.accuracy = header.accuracy;

  // The options were validated by the engine (ValidateStreamOptions).
  if (config.options.algorithm == "MCF") {
    // The registry's default-constructed MCF cannot carry the service's
    // drift-check knob, so the pipeline builds its own.
    algo::McfLtcOptions mcf_options;
    mcf_options.drift_check_every = config.options.mcf_drift_check_every;
    pipeline->scheduler_ = std::make_unique<algo::McfStream>(mcf_options);
  } else {
    LTC_ASSIGN_OR_RETURN(pipeline->scheduler_,
                         algo::MakeOnlineScheduler(config.options.algorithm,
                                                   config.options.seed));
  }
  LTC_RETURN_IF_ERROR(pipeline->scheduler_->InitStreaming(
      pipeline->instance_,
      algo::StreamShardContext{config.shard_id, config.options.shards}));

  if (config.cell_size.has_value()) {
    LTC_ASSIGN_OR_RETURN(
        auto grid,
        geo::GridIndex::BuildDynamic(config.options.world, *config.cell_size));
    pipeline->grid_.emplace(std::move(grid));
  }
  if (config.options.deadline_policy == DeadlinePolicy::kAdaptive) {
    fcst::CellRateEstimator::Config fc;
    // Same cell decomposition as the incremental task index; models without
    // spatial structure fall back to one global rate cell.
    if (config.cell_size.has_value()) {
      fc.grid = geo::CellGrid(config.options.world, *config.cell_size);
    }
    fc.horizon = kForecastHorizon;
    LTC_ASSIGN_OR_RETURN(auto estimator, fcst::CellRateEstimator::Create(fc));
    pipeline->forecast_.emplace(std::move(estimator));
  }
  return pipeline;
}

Status StreamPipeline::Serialize(StateArchive& ar) {
  if (!pending_assignments_.empty() || !pending_closed_.empty() ||
      !pending_moves_.empty()) {
    return Status::FailedPrecondition(
        "pipeline snapshot mid-round: pending records not yet merged");
  }
  constexpr std::int64_t kMaxId = std::numeric_limits<std::int32_t>::max();
  // Tasks: the resident window only — "ptasks <resident> <retired>", then
  // one "pt" per resident task, whose local id is the retired count + the
  // record order (the id assignments below are no-ops when writing).
  // Current location, not arrival location: moves already applied.
  model::TaskId retired_tasks = instance_.tasks.first_id();
  auto nt = static_cast<std::int64_t>(instance_.tasks.size());
  LTC_RETURN_IF_ERROR(
      ar.Record("ptasks", Count(&nt), Index(&retired_tasks, 0, kMaxId)));
  if (nt > kMaxId - retired_tasks) {
    return Status::OutOfRange("snapshot: task ids past int32");
  }
  if (ar.reading()) {
    instance_.tasks.Reset(retired_tasks, static_cast<std::size_t>(nt));
    tasks_.Reset(retired_tasks, static_cast<std::size_t>(nt));
  }
  for (model::TaskId id = retired_tasks; id < instance_.num_tasks(); ++id) {
    model::Task& task = instance_.task(id);
    task.id = id;
    LTC_RETURN_IF_ERROR(ar.Record("pt", Index(&tasks_.at(id).global, 0, kMaxId),
                                  Real(&task.location.x),
                                  Real(&task.location.y)));
  }
  // Workers: the resident window only — "pworkers <resident> <retired>",
  // then one "pw" per resident worker, whose local arrival index is the
  // retired count + the record order + 1.
  model::WorkerIndex retired = instance_.workers.first_id() - 1;
  auto nw = static_cast<std::int64_t>(instance_.workers.size());
  LTC_RETURN_IF_ERROR(
      ar.Record("pworkers", Count(&nw), Index(&retired, 0, kMaxId)));
  if (nw > kMaxId - retired) {
    return Status::OutOfRange("snapshot: worker indices past int32");
  }
  if (ar.reading()) {
    instance_.workers.Reset(retired + 1, static_cast<std::size_t>(nw));
    worker_global_.Reset(retired + 1, static_cast<std::size_t>(nw));
  }
  for (model::WorkerIndex w = retired + 1; w <= instance_.last_worker();
       ++w) {
    model::Worker& worker = instance_.worker(w);
    worker.index = w;
    LTC_RETURN_IF_ERROR(ar.Record(
        "pw", Index(&worker_global_.at(w), 1, kMaxId),
        Real(&worker.location.x), Real(&worker.location.y),
        Unit(&worker.historical_accuracy)));
  }
  // The open micro-batch: resident local worker indices in arrival order.
  LTC_RETURN_IF_ERROR(
      ar.Record("pbatch", Real(&batch_open_time_),
                CountedList(&batch_, retired + 1, instance_.last_worker())));
  LTC_RETURN_IF_ERROR(ar.Record("pcounters", NonNeg(&batches_),
                                NonNeg(&max_batch_size_),
                                NonNeg(&tasks_completed_)));
  // Reading, the scheduler restarts over the regrown instance (same shard
  // identity) and reads its records.
  if (ar.reading()) {
    LTC_RETURN_IF_ERROR(
        scheduler_->InitStreaming(instance_, scheduler_->shard_context()));
  }
  LTC_RETURN_IF_ERROR(
      ar.Block("sched", [&] { return scheduler_->Serialize(ar); }));
  // Route state rides along only in route_workers mode, so the default
  // snapshot bytes are exactly the pre-routing format.
  if (config_.options.route_workers) {
    // One "pr <worker> <origin.x> <origin.y> <start> <visited> <stops>"
    // record per route (ascending global worker index, which outlives the
    // worker's retirement), each followed by its "ps <task> <x> <y>"
    // stops. Reading rebuilds each route with FromStops, which recomputes
    // leg costs and reach times from the metric, so the restored route
    // emits the exact moves the live one would have.
    const geo::Metric& metric = *instance_.accuracy->DistanceMetric();
    auto n = static_cast<std::int64_t>(routes_.size());
    LTC_RETURN_IF_ERROR(ar.Record("proutes", Count(&n)));
    auto it = routes_.begin();
    model::WorkerIndex last = 0;
    for (std::int64_t r = 0; r < n; ++r) {
      model::WorkerIndex w = 0;
      geo::Point origin;
      double start_time = 0.0;
      std::int64_t visited = 0;
      std::vector<std::pair<model::TaskId, geo::Point>> stops;
      if (ar.writing()) {
        const model::WorkerRoute& route = it->second;
        w = (it++)->first;
        origin = route.origin();
        start_time = route.start_time();
        visited = static_cast<std::int64_t>(route.visited());
        for (const model::WorkerRoute::Stop& s : route.stops()) {
          stops.emplace_back(s.task, s.location);
        }
      }
      auto n_stops = static_cast<std::int64_t>(stops.size());
      LTC_RETURN_IF_ERROR(ar.Record(
          "pr", Index(&w, last + 1, kMaxId), Real(&origin.x), Real(&origin.y),
          Real(&start_time), Index(&visited, 0, kMaxId), Count(&n_stops)));
      if (visited > n_stops) {
        return Status::OutOfRange("snapshot: route visited past its stops");
      }
      stops.resize(static_cast<std::size_t>(n_stops));
      for (auto& [task, at] : stops) {
        LTC_RETURN_IF_ERROR(ar.Record("ps", Index(&task, 0, kMaxId),
                                      Real(&at.x), Real(&at.y)));
      }
      if (ar.reading()) {
        routes_.emplace(w, model::WorkerRoute::FromStops(
                               metric, origin, start_time, stops,
                               static_cast<std::size_t>(visited)));
      }
      last = w;
    }
  }
  // Adaptive-deadline state likewise rides along only when the policy is
  // on, so fixed-mode snapshot bytes are unchanged. The forecast and the
  // open batch's flush instant are schedule inputs: a restored service
  // must predict — and therefore flush — exactly as the uninterrupted one
  // would (DESIGN.md §13).
  if (config_.options.deadline_policy == DeadlinePolicy::kAdaptive) {
    LTC_RETURN_IF_ERROR(
        ar.Block("pfcst", [&] { return forecast_->Serialize(ar); }));
    LTC_RETURN_IF_ERROR(ar.Record("pdl", Real(&batch_flush_time_),
                                  NonNeg(&quiet_flushes_),
                                  NonNeg(&deadline_extensions_)));
  }
  LTC_RETURN_IF_ERROR(ar.Record("endpipe"));
  if (ar.writing()) return Status::OK();

  // Derived state. The open flags follow from the restored arrangement (a
  // task is closed exactly when it reached delta — RecordCommits'
  // invariant), and the grid is filled over the open set in ascending
  // local-id order, which matches incremental maintenance query-for-query
  // (the sorted-bucket invariant of geo/grid_index.h).
  const model::Arrangement& arr = scheduler_->arrangement();
  oldest_open_ = retired_tasks;
  if (grid_.has_value()) {
    LTC_RETURN_IF_ERROR(grid_->RetireIdsBefore(retired_tasks));
  }
  for (model::TaskId id = retired_tasks; id < instance_.num_tasks(); ++id) {
    if (arr.TaskCompleted(id)) continue;
    tasks_.at(id).open = true;
    if (grid_.has_value()) {
      LTC_RETURN_IF_ERROR(grid_->Insert(id, instance_.task(id).location));
    }
  }
  return Status::OK();
}

StatusOr<model::TaskId> StreamPipeline::AddTask(model::TaskId global_id,
                                                double time,
                                                const geo::Point& location) {
  const auto id = static_cast<model::TaskId>(instance_.num_tasks());
  model::Task task;
  task.id = id;
  task.location = location;
  instance_.tasks.push_back(task);
  tasks_.push_back(TaskState{global_id, true});
  if (grid_.has_value()) {
    LTC_RETURN_IF_ERROR(grid_->Insert(id, location));
  }
  if (forecast_.has_value()) forecast_->OnTaskArrival(location, time);
  LTC_RETURN_IF_ERROR(scheduler_->OnTaskAdded(id));
  return id;
}

Status StreamPipeline::MoveTask(model::TaskId local_id,
                                const geo::Point& location) {
  if (local_id < 0 ||
      static_cast<std::int64_t>(local_id) >= instance_.num_tasks()) {
    return Status::InvalidArgument(
        StrFormat("move references unknown local task %d", local_id));
  }
  if (!instance_.task_resident(local_id)) return Status::OK();  // retired
  instance_.task(local_id).location = location;
  if (tasks_.at(local_id).open && grid_.has_value()) {
    LTC_RETURN_IF_ERROR(grid_->Relocate(local_id, location));
  }
  return Status::OK();
}

Status StreamPipeline::BufferWorker(model::WorkerIndex global_index,
                                    const geo::Point& location,
                                    double accuracy, double time,
                                    bool* flush_now) {
  *flush_now = false;
  model::Worker worker;
  worker.index = instance_.last_worker() + 1;
  worker.location = location;
  worker.historical_accuracy = accuracy;
  instance_.workers.push_back(worker);
  worker_global_.push_back(global_index);

  const bool opened = batch_.empty();
  if (opened) batch_open_time_ = time;
  batch_.push_back(worker.index);
  const bool hit_max =
      config_.options.max_batch > 0 &&
      static_cast<std::int64_t>(batch_.size()) >= config_.options.max_batch;

  if (config_.options.deadline_policy == DeadlinePolicy::kAdaptive) {
    // Record the arrival first: the prediction for the cell's *next*
    // arrival conditions on everything seen so far, this worker included.
    forecast_->OnWorkerArrival(location, time);
    if (hit_max) {
      *flush_now = true;
      return Status::OK();
    }
    const double cap_end = batch_open_time_ + config_.options.batch_deadline;
    const double rate = forecast_->WorkerRate(location, time);
    // Expected wait to the next worker arrival in this cell (1/rate); a
    // prediction at or past the cap means holding buys nothing — flush at
    // this arrival's instant (quiet cell). Otherwise position the flush at
    // the predicted instant, only ever extending (an early prediction
    // never retracts a later one) and never past the cap.
    const double target = rate > 0.0 ? time + 1.0 / rate : cap_end;
    if (!(target < cap_end)) {
      ++quiet_flushes_;
      *flush_now = true;
      return Status::OK();
    }
    if (opened) {
      batch_flush_time_ = target;
    } else if (target > batch_flush_time_) {
      batch_flush_time_ = target;
      ++deadline_extensions_;
    }
    return Status::OK();
  }

  *flush_now = hit_max || config_.options.batch_deadline == 0.0;
  return Status::OK();
}

void StreamPipeline::PrepareGather() {
  if (gather_slots_.size() < batch_.size()) {
    gather_slots_.resize(batch_.size());
  }
}

void StreamPipeline::GatherSlot(std::size_t i) {
  const model::Worker& worker = instance_.worker(batch_[i]);
  std::vector<model::TaskId>* out = &gather_slots_[i];
  out->clear();
  if (grid_.has_value()) {
    const auto radius =
        instance_.accuracy->EligibleRadius(worker, instance_.acc_min);
    if (!radius.has_value()) return;  // probe had structure; worker must too
    if (*radius < 0.0) return;        // empty disk: nothing in reach
    auto check = [&](std::int64_t id) {
      const auto t = static_cast<model::TaskId>(id);
      // Exact for distance-monotone models; re-check keeps approximate
      // EligibleRadius implementations safe (same policy as
      // EligibilityIndex).
      if (instance_.Eligible(worker.index, t)) out->push_back(t);
    };
    const geo::Metric& metric = *instance_.accuracy->DistanceMetric();
    if (metric.euclidean()) {
      // Fast path: the templated grid visitor, no std::function hop.
      grid_->ForEachInRadius(worker.location, *radius, check);
    } else {
      // Grid pruning stays a superset under any conforming metric (the
      // metric ball of radius r sits inside the Euclidean disk of radius
      // r — geo/metric.h); EligibleWithin applies the exact filter. The
      // std::function wraps a reference: the lambda itself is too big for
      // its local buffer and would be heap-allocated per gather.
      metric.EligibleWithin(*grid_, worker.location, *radius,
                            std::ref(check));
    }
    // The grid emits cell order; the scheduler contract wants ascending ids.
    std::sort(out->begin(), out->end());
    return;
  }
  for (model::TaskId t = oldest_open_; t < instance_.num_tasks(); ++t) {
    if (tasks_.at(t).open && instance_.Eligible(worker.index, t)) {
      out->push_back(t);
    }
  }
}

Status StreamPipeline::CommitBatch(double flush_time, bool check) {
  if (batch_.empty()) return Status::OK();
  const std::size_t n = batch_.size();
  ++batches_;
  max_batch_size_ = std::max(max_batch_size_, static_cast<std::int64_t>(n));
  // Route progress up to this flush instant is emitted before this round's
  // commitments extend any route.
  if (config_.options.route_workers) AdvanceRoutes(flush_time);

  // The whole flushed batch in arrival order, one call. The scheduler
  // re-filters tasks completed by earlier commits of the batch, and it may
  // buffer (MCF commits can reference workers admitted in earlier
  // flushes); every commitment it does make lands at this flush's instant,
  // which keeps the log a pure function of the admitted sequence.
  candidate_ptrs_.clear();
  for (std::size_t i = 0; i < n; ++i) {
    candidate_ptrs_.push_back(&gather_slots_[i]);
  }
  commits_scratch_.clear();
  LTC_RETURN_IF_ERROR(scheduler_->OnBatchWithCandidates(
      batch_, candidate_ptrs_, &commits_scratch_));
  batch_.clear();
  return FinishRound(flush_time, check);
}

Status StreamPipeline::CommitStreamEnd(double end_time, bool check) {
  // Stream end also closes the move log: whatever route progress lands at
  // or before the end instant is emitted (stops beyond it stay in flight).
  if (config_.options.route_workers) AdvanceRoutes(end_time);
  commits_scratch_.clear();
  LTC_RETURN_IF_ERROR(scheduler_->OnStreamEnd(&commits_scratch_));
  // The final partial batch is a real commit round; an empty one still
  // releases the workers the scheduler held.
  if (!commits_scratch_.empty()) ++batches_;
  LTC_RETURN_IF_ERROR(FinishRound(end_time, check));
  // Commitments made at the end instant can complete zero-length legs
  // (stop at the worker's own location) exactly at end_time.
  if (config_.options.route_workers) AdvanceRoutes(end_time);
  return Status::OK();
}

Status StreamPipeline::FinishRound(double time, bool check) {
  if (check) {
    // The round is the arrangement's tail, one entry per commitment; its
    // workers are all still resident.
    const model::Arrangement& arr = scheduler_->arrangement();
    LTC_RETURN_IF_ERROR(model::ValidateCommitRound(
        instance_, arr,
        static_cast<std::size_t>(arr.size()) - commits_scratch_.size()));
  }
  RecordCommits(commits_scratch_, time);
  // Retire every worker older than the open batch and the scheduler's
  // oldest held worker: no later round reads it.
  model::WorkerIndex keep = instance_.last_worker() + 1;
  if (!batch_.empty()) keep = batch_.front();
  const model::WorkerIndex held = scheduler_->OldestHeldWorker();
  if (held > 0) keep = std::min(keep, held);
  worker_global_.RetireBefore(keep);
  instance_.workers.RetireBefore(keep);
  scheduler_->RetireWorkersBefore(keep);
  return RetireTasks();
}

Status StreamPipeline::RetireTasks() {
  // Tasks never reopen, so the cursor only moves forward: O(1) amortized.
  while (oldest_open_ < instance_.num_tasks() &&
         !tasks_.at(oldest_open_).open) {
    ++oldest_open_;
  }
  model::TaskId keep = oldest_open_;
  const model::TaskId held = scheduler_->OldestHeldTask();
  if (held >= 0) keep = std::min(keep, held);
  // Compact only once the closed prefix is at least as long as the kept
  // window: each erase then moves no more entries than it drops.
  const model::TaskId first = instance_.tasks.first_id();
  if (keep <= first || keep - first < instance_.num_tasks() - keep) {
    return Status::OK();
  }
  tasks_.RetireBefore(keep);
  if (grid_.has_value()) LTC_RETURN_IF_ERROR(grid_->RetireIdsBefore(keep));
  instance_.tasks.RetireBefore(keep);
  scheduler_->RetireTasksBefore(keep);
  return Status::OK();
}

void StreamPipeline::RecordCommits(
    const std::vector<algo::OnlineScheduler::StreamCommit>& commits,
    double time) {
  for (const auto& commit : commits) {
    pending_assignments_.push_back(StreamAssignment{
        time, worker_global_.at(commit.worker), tasks_.at(commit.task).global});
    if (config_.options.route_workers) {
      RouteAssignment(commit.worker, commit.task, time);
    }
  }
  // Close every task this round completed, so the next gather never sees
  // it. A task closes at its last commit of the round — the commit that
  // completed it, since schedulers never commit to a completed task: a
  // backward scan finds those commits, and the closures are recorded in
  // commit order.
  const model::Arrangement& arrangement = scheduler_->arrangement();
  closing_scratch_.clear();
  for (auto it = commits.rbegin(); it != commits.rend(); ++it) {
    TaskState& state = tasks_.at(it->task);
    if (!state.open || !arrangement.TaskCompleted(it->task)) continue;
    state.open = false;
    closing_scratch_.push_back(it->task);
  }
  for (auto it = closing_scratch_.rbegin(); it != closing_scratch_.rend();
       ++it) {
    if (grid_.has_value()) {
      // The id is present: it was open until this round.
      const Status removed = grid_->Remove(*it);
      (void)removed;
    }
    pending_closed_.push_back(tasks_.at(*it).global);
    ++tasks_completed_;
  }
}

void StreamPipeline::AdvanceRoutes(double now) {
  for (auto& [global, route] : routes_) {
    if (route.done()) continue;
    route.AdvanceTo(now, [&](const model::WorkerRoute::Stop& stop) {
      pending_moves_.push_back(
          WorkerMove{stop.reach_time, global, stop.location, stop.task});
    });
  }
}

void StreamPipeline::RouteAssignment(model::WorkerIndex w, model::TaskId t,
                                     double time) {
  const model::WorkerIndex global = worker_global_.at(w);
  auto it = routes_.find(global);
  if (it == routes_.end()) {
    it = routes_
             .emplace(global,
                      model::WorkerRoute(instance_.worker(w).location, time))
             .first;
  }
  const geo::Metric& metric = *instance_.accuracy->DistanceMetric();
  // Stops carry the *global* task id (moves are global records) and the
  // task's location as of commit time.
  it->second.Insert(metric, tasks_.at(t).global, instance_.task(t).location);
}

double StreamPipeline::route_travel_time() const {
  double total = 0.0;
  for (const auto& [w, route] : routes_) total += route.total_cost();
  return total;
}

std::int64_t StreamPipeline::open_tasks() const {
  std::int64_t open = 0;
  for (const TaskState& task : tasks_) open += task.open ? 1 : 0;
  return open;
}

}  // namespace svc
}  // namespace ltc
