#include "svc/stream_engine.h"

#include <algorithm>
#include <future>
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

namespace {

/// Builds the pipeline's scheduler (shared by Create and Restore, which
/// must construct identically configured schedulers for the restart
/// determinism contract to hold). The options were validated by the
/// engine (ValidateStreamOptions).
StatusOr<std::unique_ptr<algo::OnlineScheduler>> MakePipelineScheduler(
    const StreamOptions& options) {
  if (options.algorithm == "MCF") {
    // The registry's default-constructed MCF cannot carry the service's
    // drift-check knob, so the pipeline builds its own.
    algo::McfLtcOptions mcf_options;
    mcf_options.drift_check_every = options.mcf_drift_check_every;
    return std::unique_ptr<algo::OnlineScheduler>(
        std::make_unique<algo::McfStream>(mcf_options));
  }
  return algo::MakeOnlineScheduler(options.algorithm, options.seed);
}

}  // namespace

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

  LTC_ASSIGN_OR_RETURN(pipeline->scheduler_,
                       MakePipelineScheduler(config.options));
  LTC_RETURN_IF_ERROR(pipeline->scheduler_->InitStreaming(
      pipeline->instance_,
      algo::StreamShardContext{config.shard_id, config.options.shards}));

  if (config.cell_size.has_value()) {
    LTC_ASSIGN_OR_RETURN(
        auto grid,
        geo::GridIndex::BuildDynamic(config.options.world, *config.cell_size));
    pipeline->grid_.emplace(std::move(grid));
  }
  LTC_RETURN_IF_ERROR(pipeline->InitForecast());
  return pipeline;
}

Status StreamPipeline::InitForecast() {
  if (config_.options.deadline_policy != DeadlinePolicy::kAdaptive) {
    return Status::OK();
  }
  fcst::CellRateEstimator::Config fc;
  // Same cell decomposition as the incremental task index; models without
  // spatial structure fall back to one global rate cell.
  if (config_.cell_size.has_value()) {
    fc.grid = geo::CellGrid(config_.options.world, *config_.cell_size);
  }
  fc.horizon = kForecastHorizon;
  LTC_ASSIGN_OR_RETURN(auto estimator, fcst::CellRateEstimator::Create(fc));
  forecast_.emplace(std::move(estimator));
  return Status::OK();
}

Status StreamPipeline::SerializeTo(std::string* out) const {
  if (!pending_assignments_.empty() || !pending_closed_.empty() ||
      !pending_moves_.empty()) {
    return Status::FailedPrecondition(
        "pipeline snapshot mid-round: pending records not yet merged");
  }
  const std::int64_t nt = instance_.num_tasks();
  out->append(StrFormat("ptasks %lld\n", static_cast<long long>(nt)));
  for (std::int64_t t = 0; t < nt; ++t) {
    const auto ti = static_cast<std::size_t>(t);
    // Current location, not arrival location: moves already applied.
    out->append(StrFormat("pt %lld %.17g %.17g %.17g\n",
                          static_cast<long long>(task_global_[ti]),
                          task_arrival_time_[ti],
                          instance_.tasks[ti].location.x,
                          instance_.tasks[ti].location.y));
  }
  out->append(StrFormat("pworkers %lld\n",
                        static_cast<long long>(instance_.num_workers())));
  for (std::size_t i = 0; i < instance_.workers.size(); ++i) {
    const model::Worker& w = instance_.workers[i];
    out->append(StrFormat("pw %lld %.17g %.17g %.17g\n",
                          static_cast<long long>(worker_global_[i]),
                          w.location.x, w.location.y, w.historical_accuracy));
  }
  out->append(StrFormat("pbatch %.17g %lld", batch_open_time_,
                        static_cast<long long>(batch_.size())));
  for (const model::WorkerIndex w : batch_) {
    out->append(StrFormat(" %lld", static_cast<long long>(w)));
  }
  out->push_back('\n');
  out->append(StrFormat("pcounters %lld %lld %lld\n",
                        static_cast<long long>(batches_),
                        static_cast<long long>(max_batch_size_),
                        static_cast<long long>(tasks_completed_)));
  out->append(StrFormat("plat_a %lld\n", static_cast<long long>(
                                             assignment_latency_samples_.size())));
  for (const double v : assignment_latency_samples_) {
    out->append(StrFormat("l %.17g\n", v));
  }
  out->append(StrFormat("plat_c %lld\n", static_cast<long long>(
                                             completion_latency_samples_.size())));
  for (const double v : completion_latency_samples_) {
    out->append(StrFormat("l %.17g\n", v));
  }
  std::string sched;
  LTC_RETURN_IF_ERROR(scheduler_->SerializeState(&sched));
  const auto sched_lines =
      static_cast<std::int64_t>(std::count(sched.begin(), sched.end(), '\n'));
  out->append(StrFormat("sched %lld\n", static_cast<long long>(sched_lines)));
  out->append(sched);
  // Route state rides along only in route_workers mode, so the default
  // snapshot bytes are exactly the pre-routing format.
  if (config_.options.route_workers) {
    out->append(StrFormat("proutes %lld\n",
                          static_cast<long long>(routes_.size())));
    for (const auto& [w, route] : routes_) {
      out->append(StrFormat("pr %lld %.17g %.17g %.17g %lld %lld\n",
                            static_cast<long long>(w), route.origin().x,
                            route.origin().y, route.start_time(),
                            static_cast<long long>(route.visited()),
                            static_cast<long long>(route.stops().size())));
      for (const model::WorkerRoute::Stop& s : route.stops()) {
        out->append(StrFormat("ps %lld %.17g %.17g\n",
                              static_cast<long long>(s.task), s.location.x,
                              s.location.y));
      }
    }
  }
  // Adaptive-deadline state likewise rides along only when the policy is
  // on, so fixed-mode snapshot bytes are unchanged. The forecast blob and
  // the open batch's flush instant are schedule inputs: a restored service
  // must predict — and therefore flush — exactly as the uninterrupted one
  // would (DESIGN.md §13).
  if (config_.options.deadline_policy == DeadlinePolicy::kAdaptive) {
    std::string blob;
    LTC_RETURN_IF_ERROR(forecast_->SerializeTo(&blob));
    const auto blob_lines =
        static_cast<std::int64_t>(std::count(blob.begin(), blob.end(), '\n'));
    out->append(StrFormat("pfcst %lld\n", static_cast<long long>(blob_lines)));
    out->append(blob);
    out->append(StrFormat("pdl %.17g %lld %lld\n", batch_flush_time_,
                          static_cast<long long>(quiet_flushes_),
                          static_cast<long long>(deadline_extensions_)));
  }
  out->append("endpipe\n");
  return Status::OK();
}

StatusOr<std::unique_ptr<StreamPipeline>> StreamPipeline::Restore(
    const io::EventLog& header, const Config& config, snap::Reader* reader) {
  if (header.accuracy == nullptr) {
    return Status::InvalidArgument("event log header has no accuracy model");
  }
  std::unique_ptr<StreamPipeline> pipeline(new StreamPipeline(config));
  pipeline->instance_.epsilon = header.epsilon;
  pipeline->instance_.capacity = header.capacity;
  pipeline->instance_.acc_min = header.acc_min;
  pipeline->instance_.accuracy = header.accuracy;

  std::vector<std::string> f;

  // Tasks: local ids are the serialization order.
  std::int64_t nt = 0;
  LTC_RETURN_IF_ERROR(reader->ReadCount("ptasks", &nt));
  pipeline->instance_.tasks.reserve(reader->ReserveHint(nt));
  for (std::int64_t t = 0; t < nt; ++t) {
    LTC_RETURN_IF_ERROR(reader->Read("pt", 5, &f));
    std::int64_t global = 0;
    model::Task task;
    task.id = static_cast<model::TaskId>(t);
    double arrival = 0.0;
    LTC_RETURN_IF_ERROR(snap::FieldI64(f, 1, &global));
    LTC_RETURN_IF_ERROR(snap::FieldDouble(f, 2, &arrival));
    LTC_RETURN_IF_ERROR(snap::FieldDouble(f, 3, &task.location.x));
    LTC_RETURN_IF_ERROR(snap::FieldDouble(f, 4, &task.location.y));
    pipeline->instance_.tasks.push_back(task);
    pipeline->task_arrival_time_.push_back(arrival);
    pipeline->task_global_.push_back(static_cast<model::TaskId>(global));
  }

  // Workers: local arrival indices are the serialization order + 1.
  std::int64_t nw = 0;
  LTC_RETURN_IF_ERROR(reader->ReadCount("pworkers", &nw));
  pipeline->instance_.workers.reserve(reader->ReserveHint(nw));
  for (std::int64_t i = 0; i < nw; ++i) {
    LTC_RETURN_IF_ERROR(reader->Read("pw", 5, &f));
    std::int64_t global = 0;
    model::Worker worker;
    worker.index = static_cast<model::WorkerIndex>(i + 1);
    LTC_RETURN_IF_ERROR(snap::FieldI64(f, 1, &global));
    LTC_RETURN_IF_ERROR(snap::FieldDouble(f, 2, &worker.location.x));
    LTC_RETURN_IF_ERROR(snap::FieldDouble(f, 3, &worker.location.y));
    LTC_RETURN_IF_ERROR(snap::FieldDouble(f, 4, &worker.historical_accuracy));
    pipeline->instance_.workers.push_back(worker);
    pipeline->worker_global_.push_back(
        static_cast<model::WorkerIndex>(global));
  }

  // The open micro-batch.
  LTC_RETURN_IF_ERROR(reader->Read("pbatch", 3, &f));
  std::int64_t batch_n = 0;
  LTC_RETURN_IF_ERROR(snap::FieldDouble(f, 1, &pipeline->batch_open_time_));
  LTC_RETURN_IF_ERROR(snap::FieldI64(f, 2, &batch_n));
  if (batch_n < 0 || f.size() != static_cast<std::size_t>(batch_n) + 3) {
    return Status::InvalidArgument("snapshot: batch record length mismatch");
  }
  for (std::int64_t i = 0; i < batch_n; ++i) {
    std::int64_t w = 0;
    LTC_RETURN_IF_ERROR(snap::FieldI64(f, static_cast<std::size_t>(i) + 3, &w));
    if (w < 1 || w > nw) {
      return Status::OutOfRange("snapshot: batch worker out of range");
    }
    pipeline->batch_.push_back(static_cast<model::WorkerIndex>(w));
  }

  LTC_RETURN_IF_ERROR(reader->Read("pcounters", 4, &f));
  LTC_RETURN_IF_ERROR(snap::FieldI64(f, 1, &pipeline->batches_));
  LTC_RETURN_IF_ERROR(snap::FieldI64(f, 2, &pipeline->max_batch_size_));
  LTC_RETURN_IF_ERROR(snap::FieldI64(f, 3, &pipeline->tasks_completed_));

  // Latency samples (metrics parity across restarts, not schedule inputs).
  std::int64_t n_samples = 0;
  LTC_RETURN_IF_ERROR(reader->ReadCount("plat_a", &n_samples));
  for (std::int64_t i = 0; i < n_samples; ++i) {
    LTC_RETURN_IF_ERROR(reader->Read("l", 2, &f));
    double v = 0.0;
    LTC_RETURN_IF_ERROR(snap::FieldDouble(f, 1, &v));
    pipeline->assignment_latency_samples_.push_back(v);
  }
  LTC_RETURN_IF_ERROR(reader->ReadCount("plat_c", &n_samples));
  for (std::int64_t i = 0; i < n_samples; ++i) {
    LTC_RETURN_IF_ERROR(reader->Read("l", 2, &f));
    double v = 0.0;
    LTC_RETURN_IF_ERROR(snap::FieldDouble(f, 1, &v));
    pipeline->completion_latency_samples_.push_back(v);
  }

  // Scheduler blob: restore against the fully re-grown instance.
  std::int64_t sched_lines = 0;
  LTC_RETURN_IF_ERROR(reader->ReadCount("sched", &sched_lines));
  std::string blob;
  for (std::int64_t i = 0; i < sched_lines; ++i) {
    std::string line;
    LTC_RETURN_IF_ERROR(reader->ReadRaw(&line));
    blob += line;
    blob += '\n';
  }
  LTC_ASSIGN_OR_RETURN(pipeline->scheduler_,
                       MakePipelineScheduler(config.options));
  LTC_RETURN_IF_ERROR(pipeline->scheduler_->RestoreState(
      pipeline->instance_,
      algo::StreamShardContext{config.shard_id, config.options.shards},
      blob));

  if (config.options.route_workers) {
    const geo::Metric& metric =
        *pipeline->instance_.accuracy->DistanceMetric();
    std::int64_t n_routes = 0;
    LTC_RETURN_IF_ERROR(reader->ReadCount("proutes", &n_routes));
    for (std::int64_t r = 0; r < n_routes; ++r) {
      LTC_RETURN_IF_ERROR(reader->Read("pr", 7, &f));
      std::int64_t w = 0;
      geo::Point origin;
      double start_time = 0.0;
      std::int64_t visited = 0;
      std::int64_t n_stops = 0;
      LTC_RETURN_IF_ERROR(snap::FieldI64(f, 1, &w));
      LTC_RETURN_IF_ERROR(snap::FieldDouble(f, 2, &origin.x));
      LTC_RETURN_IF_ERROR(snap::FieldDouble(f, 3, &origin.y));
      LTC_RETURN_IF_ERROR(snap::FieldDouble(f, 4, &start_time));
      LTC_RETURN_IF_ERROR(snap::FieldI64(f, 5, &visited));
      LTC_RETURN_IF_ERROR(snap::FieldI64(f, 6, &n_stops));
      if (w < 1 || w > nw || visited < 0 || visited > n_stops ||
          n_stops < 0) {
        return Status::OutOfRange("snapshot: route record out of range");
      }
      std::vector<std::pair<model::TaskId, geo::Point>> stops;
      stops.reserve(reader->ReserveHint(n_stops));
      for (std::int64_t s = 0; s < n_stops; ++s) {
        LTC_RETURN_IF_ERROR(reader->Read("ps", 4, &f));
        std::int64_t task = 0;
        geo::Point location;
        LTC_RETURN_IF_ERROR(snap::FieldI64(f, 1, &task));
        LTC_RETURN_IF_ERROR(snap::FieldDouble(f, 2, &location.x));
        LTC_RETURN_IF_ERROR(snap::FieldDouble(f, 3, &location.y));
        stops.emplace_back(static_cast<model::TaskId>(task), location);
      }
      // FromStops recomputes leg costs and reach times from the metric, so
      // the restored route emits the exact moves the live one would have.
      pipeline->routes_.emplace(
          static_cast<model::WorkerIndex>(w),
          model::WorkerRoute::FromStops(metric, origin, start_time, stops,
                                        static_cast<std::size_t>(visited)));
    }
  }
  if (config.options.deadline_policy == DeadlinePolicy::kAdaptive) {
    LTC_RETURN_IF_ERROR(pipeline->InitForecast());
    LTC_RETURN_IF_ERROR(reader->Read("pfcst", 2, &f));
    std::int64_t blob_lines = 0;
    LTC_RETURN_IF_ERROR(snap::FieldI64(f, 1, &blob_lines));
    std::string blob;
    for (std::int64_t i = 0; i < blob_lines; ++i) {
      std::string line;
      LTC_RETURN_IF_ERROR(reader->ReadRaw(&line));
      blob += line;
      blob += '\n';
    }
    LTC_RETURN_IF_ERROR(pipeline->forecast_->RestoreFrom(blob));
    LTC_RETURN_IF_ERROR(reader->Read("pdl", 4, &f));
    LTC_RETURN_IF_ERROR(
        snap::FieldDouble(f, 1, &pipeline->batch_flush_time_));
    LTC_RETURN_IF_ERROR(snap::FieldI64(f, 2, &pipeline->quiet_flushes_));
    LTC_RETURN_IF_ERROR(
        snap::FieldI64(f, 3, &pipeline->deadline_extensions_));
  }
  LTC_RETURN_IF_ERROR(reader->Read("endpipe", 1, &f));

  // Derived state. open_ follows from the restored arrangement (a task is
  // closed exactly when it reached delta — RecordCommits' invariant), and
  // the grid is rebuilt over the open set in ascending local-id order,
  // which matches incremental maintenance query-for-query (the sorted-
  // bucket invariant of geo/grid_index.h).
  const model::Arrangement& arr = pipeline->scheduler_->arrangement();
  if (arr.num_tasks() != nt) {
    return Status::Internal("snapshot: scheduler/task count mismatch");
  }
  if (config.cell_size.has_value()) {
    LTC_ASSIGN_OR_RETURN(
        auto grid,
        geo::GridIndex::BuildDynamic(config.options.world, *config.cell_size));
    pipeline->grid_.emplace(std::move(grid));
  }
  pipeline->open_.assign(static_cast<std::size_t>(nt), 0);
  for (std::int64_t t = 0; t < nt; ++t) {
    const auto ti = static_cast<std::size_t>(t);
    if (arr.TaskCompleted(static_cast<model::TaskId>(t))) continue;
    pipeline->open_[ti] = 1;
    if (pipeline->grid_.has_value()) {
      LTC_RETURN_IF_ERROR(pipeline->grid_->Insert(
          static_cast<model::TaskId>(t), pipeline->instance_.tasks[ti].location));
    }
  }
  return pipeline;
}

StatusOr<model::TaskId> StreamPipeline::AddTask(model::TaskId global_id,
                                                double time,
                                                const geo::Point& location) {
  const auto id = static_cast<model::TaskId>(instance_.num_tasks());
  model::Task task;
  task.id = id;
  task.location = location;
  instance_.tasks.push_back(task);
  task_arrival_time_.push_back(time);
  task_global_.push_back(global_id);
  open_.push_back(1);
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
  instance_.tasks[static_cast<std::size_t>(local_id)].location = location;
  if (open_[static_cast<std::size_t>(local_id)] && grid_.has_value()) {
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
  worker.index = static_cast<model::WorkerIndex>(instance_.num_workers() + 1);
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
  const model::Worker& worker =
      instance_.workers[static_cast<std::size_t>(batch_[i]) - 1];
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
      // r — geo/metric.h); EligibleWithin applies the exact filter.
      metric.EligibleWithin(*grid_, worker.location, *radius, check);
    }
    // The grid emits cell order; the scheduler contract wants ascending ids.
    std::sort(out->begin(), out->end());
    return;
  }
  for (std::int64_t t = 0; t < instance_.num_tasks(); ++t) {
    if (open_[static_cast<std::size_t>(t)] &&
        instance_.Eligible(worker.index, static_cast<model::TaskId>(t))) {
      out->push_back(static_cast<model::TaskId>(t));
    }
  }
}

Status StreamPipeline::CommitBatch(double flush_time) {
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
  RecordCommits(commits_scratch_, flush_time);
  batch_.clear();
  return Status::OK();
}

Status StreamPipeline::CommitStreamEnd(double end_time) {
  // Stream end also closes the move log: whatever route progress lands at
  // or before the end instant is emitted (stops beyond it stay in flight).
  if (config_.options.route_workers) AdvanceRoutes(end_time);
  commits_scratch_.clear();
  LTC_RETURN_IF_ERROR(scheduler_->OnStreamEnd(&commits_scratch_));
  if (commits_scratch_.empty()) return Status::OK();
  ++batches_;  // the final partial batch is a real commit round
  RecordCommits(commits_scratch_, end_time);
  // Commitments made at the end instant can complete zero-length legs
  // (stop at the worker's own location) exactly at end_time.
  if (config_.options.route_workers) AdvanceRoutes(end_time);
  return Status::OK();
}

void StreamPipeline::RecordCommits(
    const std::vector<algo::OnlineScheduler::StreamCommit>& commits,
    double time) {
  for (const auto& commit : commits) {
    pending_assignments_.push_back(StreamAssignment{
        time, worker_global_[static_cast<std::size_t>(commit.worker) - 1],
        task_global_[static_cast<std::size_t>(commit.task)]});
    assignment_latency_samples_.push_back(
        time - task_arrival_time_[static_cast<std::size_t>(commit.task)]);
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
    const auto slot = static_cast<std::size_t>(it->task);
    if (!open_[slot] || !arrangement.TaskCompleted(it->task)) continue;
    open_[slot] = 0;
    closing_scratch_.push_back(it->task);
  }
  for (auto it = closing_scratch_.rbegin(); it != closing_scratch_.rend();
       ++it) {
    const auto slot = static_cast<std::size_t>(*it);
    if (grid_.has_value()) {
      // The id is present: it was open until this round.
      const Status removed = grid_->Remove(*it);
      (void)removed;
    }
    completion_latency_samples_.push_back(time - task_arrival_time_[slot]);
    pending_closed_.push_back(task_global_[slot]);
    ++tasks_completed_;
  }
}

void StreamPipeline::AdvanceRoutes(double now) {
  for (auto& [w, route] : routes_) {
    if (route.done()) continue;
    const model::WorkerIndex global =
        worker_global_[static_cast<std::size_t>(w) - 1];
    route.AdvanceTo(now, [&](const model::WorkerRoute::Stop& stop) {
      pending_moves_.push_back(
          WorkerMove{stop.reach_time, global, stop.location, stop.task});
    });
  }
}

void StreamPipeline::RouteAssignment(model::WorkerIndex w, model::TaskId t,
                                     double time) {
  auto it = routes_.find(w);
  if (it == routes_.end()) {
    const model::Worker& worker =
        instance_.workers[static_cast<std::size_t>(w) - 1];
    it = routes_
             .emplace(w, model::WorkerRoute(worker.location, time))
             .first;
  }
  const geo::Metric& metric = *instance_.accuracy->DistanceMetric();
  // Stops carry the *global* task id (moves are global records) and the
  // task's location as of commit time.
  it->second.Insert(metric, task_global_[static_cast<std::size_t>(t)],
                    instance_.tasks[static_cast<std::size_t>(t)].location);
}

double StreamPipeline::route_travel_time() const {
  double total = 0.0;
  for (const auto& [w, route] : routes_) total += route.total_cost();
  return total;
}

Status StreamPipeline::Validate() const {
  if (instance_.num_tasks() == 0) return Status::OK();
  return model::ValidateArrangement(instance_, scheduler_->arrangement(),
                                    /*require_completion=*/false);
}

std::int64_t StreamPipeline::open_tasks() const {
  std::int64_t open = 0;
  for (char o : open_) open += o != 0 ? 1 : 0;
  return open;
}

std::int64_t StreamPipeline::workers_used() const {
  const model::Arrangement& arr = scheduler_->arrangement();
  std::int64_t used = 0;
  for (model::WorkerIndex w = 1; w <= arr.MaxWorkerIndex(); ++w) {
    if (arr.Load(w) > 0) ++used;
  }
  return used;
}

}  // namespace svc
}  // namespace ltc
