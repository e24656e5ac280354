// Run-level metrics: the three quantities every figure of the paper plots —
// max worker index (latency), wall-clock runtime, and peak memory — plus
// solver diagnostics.

#ifndef LTC_SIM_METRICS_H_
#define LTC_SIM_METRICS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "algo/scheduler.h"

namespace ltc {
namespace sim {

/// Distribution summary of a latency sample set (stream time units). The
/// percentiles are nearest-rank over the sorted samples, so they are exact
/// and deterministic — the form the CI stream gate compares.
struct LatencySummary {
  std::int64_t count = 0;
  double mean = 0.0;
  double p50 = 0.0;
  double p95 = 0.0;
  double p99 = 0.0;
  double max = 0.0;
};

/// Summarises `samples` (sorted in place; empty yields an all-zero summary).
LatencySummary SummarizeLatencies(std::vector<double>* samples);

/// Measurements of one algorithm run on one instance.
struct RunMetrics {
  std::string algorithm;
  /// MinMax(M): the arriving index of the last recruited worker.
  std::int64_t latency = 0;
  /// True iff every task reached delta.
  bool completed = false;
  /// Wall-clock seconds of the scheduling computation (excludes instance
  /// generation and index construction, matching the paper's methodology).
  double runtime_seconds = 0.0;
  /// Peak heap bytes during the run (memhook when linked, else RSS delta).
  std::uint64_t peak_memory_bytes = 0;
  /// Copied from the scheduler's ScheduleStats.
  algo::ScheduleStats stats;
  /// Streaming runs only (svc::ShardedStreamEngine): distribution of
  /// per-assignment latency — commit time minus the assigned task's arrival
  /// time, in stream time units. All-zero for batch (RunOnline/RunOffline)
  /// runs.
  LatencySummary assignment_latency;
};

/// Aggregate of repeated runs (the paper averages 30 repetitions).
struct AggregateMetrics {
  std::string algorithm;
  std::int64_t runs = 0;
  std::int64_t completed_runs = 0;
  double mean_latency = 0.0;
  double stddev_latency = 0.0;
  double mean_runtime_seconds = 0.0;
  double mean_peak_memory_bytes = 0.0;

  /// Folds one run into the aggregate (call Finalize after the last).
  void Accumulate(const RunMetrics& run);
  /// Converts accumulated sums into means/stddev.
  void Finalize();

 private:
  double latency_sum_ = 0.0;
  double latency_sq_sum_ = 0.0;
  double runtime_sum_ = 0.0;
  double memory_sum_ = 0.0;
};

}  // namespace sim
}  // namespace ltc

#endif  // LTC_SIM_METRICS_H_
