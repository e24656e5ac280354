#include "sim/engine.h"

#include "common/memhook.h"
#include "common/proc.h"
#include "common/timer.h"

namespace ltc {
namespace sim {

namespace {

/// Snapshots the active memory metric before a run.
///
/// With the memhook linked, measurement is thread-scoped: the probe tracks
/// the calling thread's net-allocation high-water mark, so concurrent runs
/// on exp::SweepRunner's threads each report their own peak instead of racing
/// over one process-wide counter. Construct and read the probe on the same
/// thread that executes the run.
struct MemoryProbe {
  bool hooked;
  std::int64_t baseline = 0;
  std::uint64_t rss_baseline = 0;

  MemoryProbe() : hooked(memhook::Active()) {
    if (hooked) {
      memhook::ResetThreadPeak();
      baseline = memhook::ThreadNetBytes();
    } else {
      rss_baseline = CurrentRssBytes();
    }
  }

  std::uint64_t PeakDelta() const {
    if (hooked) {
      const std::int64_t peak = memhook::ThreadPeakBytes();
      return peak > baseline ? static_cast<std::uint64_t>(peak - baseline)
                             : 0;
    }
    const std::uint64_t now = PeakRssBytes();
    return now > rss_baseline ? now - rss_baseline : 0;
  }
};

Status ValidateResult(const model::ProblemInstance& instance,
                      const algo::ScheduleResult& result) {
  return model::ValidateArrangement(instance, result.arrangement,
                                    /*require_completion=*/result.completed);
}

}  // namespace

StatusOr<RunMetrics> RunOnline(const model::ProblemInstance& instance,
                               const model::EligibilityIndex& index,
                               algo::OnlineScheduler* scheduler,
                               const EngineOptions& options) {
  if (scheduler == nullptr) {
    return Status::InvalidArgument("RunOnline: null scheduler");
  }
  RunMetrics metrics;
  metrics.algorithm = scheduler->Name();

  MemoryProbe probe;
  Stopwatch watch;
  LTC_ASSIGN_OR_RETURN(const std::int64_t workers_seen,
                       algo::DriveOnline(instance, index, scheduler));
  metrics.runtime_seconds = watch.ElapsedSeconds();
  metrics.peak_memory_bytes = probe.PeakDelta();

  const model::Arrangement& arr = scheduler->arrangement();
  metrics.completed = arr.AllCompleted();
  metrics.latency = arr.MaxWorkerIndex();
  metrics.stats.workers_seen = workers_seen;
  algo::FillArrangementStats(arr, &metrics.stats);

  if (options.validate) {
    LTC_RETURN_IF_ERROR(model::ValidateArrangement(
        instance, arr, /*require_completion=*/metrics.completed));
  }
  return metrics;
}

StatusOr<RunMetrics> RunOffline(const model::ProblemInstance& instance,
                                const model::EligibilityIndex& index,
                                algo::OfflineScheduler* scheduler,
                                const EngineOptions& options) {
  if (scheduler == nullptr) {
    return Status::InvalidArgument("RunOffline: null scheduler");
  }
  RunMetrics metrics;
  metrics.algorithm = scheduler->Name();

  MemoryProbe probe;
  Stopwatch watch;
  LTC_ASSIGN_OR_RETURN(algo::ScheduleResult result,
                       scheduler->Run(instance, index));
  metrics.runtime_seconds = watch.ElapsedSeconds();
  metrics.peak_memory_bytes = probe.PeakDelta();

  metrics.completed = result.completed;
  metrics.latency = result.latency;
  metrics.stats = result.stats;
  if (options.validate) {
    LTC_RETURN_IF_ERROR(ValidateResult(instance, result));
  }
  return metrics;
}

StatusOr<RunMetrics> RunAlgorithm(const std::string& name,
                                  const model::ProblemInstance& instance,
                                  const model::EligibilityIndex& index,
                                  const EngineOptions& options) {
  LTC_ASSIGN_OR_RETURN(bool online, algo::IsOnlineAlgorithm(name));
  if (online) {
    LTC_ASSIGN_OR_RETURN(auto scheduler,
                         algo::MakeOnlineScheduler(name, options.seed));
    return RunOnline(instance, index, scheduler.get(), options);
  }
  LTC_ASSIGN_OR_RETURN(auto scheduler, algo::MakeOfflineScheduler(name));
  return RunOffline(instance, index, scheduler.get(), options);
}

}  // namespace sim
}  // namespace ltc
