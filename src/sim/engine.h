// The simulation engine: drives schedulers over an instance and measures
// latency / runtime / memory.
//
// Online schedulers run through algo::DriveOnline, which enforces the
// paper's temporal constraint structurally — workers are revealed one
// arrival at a time, in stream order, and each decision is committed before
// the next worker is shown. Every online scheduler runs this way, the
// streaming MCF ("MCF") included.

#ifndef LTC_SIM_ENGINE_H_
#define LTC_SIM_ENGINE_H_

#include <cstdint>
#include <string>

#include "algo/registry.h"
#include "algo/scheduler.h"
#include "common/status.h"
#include "model/eligibility.h"
#include "model/problem.h"
#include "sim/metrics.h"

namespace ltc {
namespace sim {

/// Engine configuration.
struct EngineOptions {
  /// Validate the resulting arrangement against every LTC constraint after
  /// the run (capacity, eligibility, duplicates, completion). Cheap relative
  /// to scheduling; on by default so benches cannot silently report invalid
  /// arrangements.
  bool validate = true;
  /// Seed forwarded to seeded algorithms (Random).
  std::uint64_t seed = 42;
};

/// Drives an online scheduler over the arrival stream (algo::DriveOnline)
/// until all tasks complete or the stream is exhausted; returns measured
/// metrics.
StatusOr<RunMetrics> RunOnline(const model::ProblemInstance& instance,
                               const model::EligibilityIndex& index,
                               algo::OnlineScheduler* scheduler,
                               const EngineOptions& options = {});

/// Runs an offline scheduler on the full instance; returns measured metrics.
StatusOr<RunMetrics> RunOffline(const model::ProblemInstance& instance,
                                const model::EligibilityIndex& index,
                                algo::OfflineScheduler* scheduler,
                                const EngineOptions& options = {});

/// Convenience: looks the algorithm up in the registry and dispatches to
/// RunOnline/RunOffline.
StatusOr<RunMetrics> RunAlgorithm(const std::string& name,
                                  const model::ProblemInstance& instance,
                                  const model::EligibilityIndex& index,
                                  const EngineOptions& options = {});

}  // namespace sim
}  // namespace ltc

#endif  // LTC_SIM_ENGINE_H_
