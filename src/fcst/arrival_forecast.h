// Online arrival-rate forecasting over grid cells (DESIGN.md §13).
//
// The streaming service's batching deadline is a wager: hold the batch open
// when a better match is likely to arrive soon, flush when the neighborhood
// is quiet. Settling that wager needs a per-cell arrival-*rate* estimate
// that is (a) maintained online, O(1) per event, because it sits on the
// admission hot path, and (b) a pure function of the event prefix, because
// the serve log's determinism contract (pinned per configuration) must
// survive the forecast driving flush times.
//
// The estimator is a continuous-time EWMA per cell of the same grid
// geometry the incremental task index uses (geo::CellGrid mirrors
// geo::GridIndex's clamped floor cells). On a worker arrival at time t in
// cell c:
//
//     rate[c] <- rate[c] * exp(-(t - last[c]) / tau) + 1 / tau
//     last[c] <- t
//
// A task arrival decays rate[c] to t the same way and adds nothing.
// and a query at time `now` reads rate[c] * exp(-(now - last[c]) / tau).
// For a stationary Poisson process of intensity lambda the expectation of
// this estimate converges to lambda (each event contributes 1/tau and
// decays with time constant tau, so E[rate] = lambda * integral of
// exp(-s/tau)/tau = lambda); tau — the forecast horizon — trades reaction
// speed against variance. tests/fcst_test.cc pins convergence and decay.
//
// Its one consumer is the svc pipeline's adaptive deadline policy: each
// svc::StreamPipeline owns a CellRateEstimator (horizon
// svc::kForecastHorizon) and reads WorkerRate to position its flushes.
// Schedulers never see the forecast, so it cannot change what a flush
// commits, only when the flush happens.

#ifndef LTC_FCST_ARRIVAL_FORECAST_H_
#define LTC_FCST_ARRIVAL_FORECAST_H_

#include <cstdint>
#include <vector>

#include "common/state_archive.h"
#include "common/status.h"
#include "geo/cell_grid.h"
#include "geo/point.h"

namespace ltc {
namespace fcst {

/// \brief Per-grid-cell EWMA arrival-rate estimator.
///
/// Mutations (OnWorkerArrival/OnTaskArrival) are single-threaded — the svc
/// engine thread owns them, exactly like the rest of the pipeline's
/// mutable state. Updates never allocate: the cell table is sized at
/// construction from the grid geometry.
class CellRateEstimator {
 public:
  struct Config {
    /// Cell decomposition; the default single-cell grid is the fallback for
    /// accuracy models without spatial structure (one global rate).
    geo::CellGrid grid;
    /// EWMA time constant tau, in stream-time units (> 0).
    double horizon = 8.0;
  };

  /// Builds an all-zero estimator. config.horizon must be > 0.
  static StatusOr<CellRateEstimator> Create(const Config& config);

  /// O(1): records one worker arrival at `p`, time `t`. Times must be
  /// non-decreasing per cell (the engine's stream clock guarantees it; a
  /// backwards time is clamped, never amplified).
  void OnWorkerArrival(const geo::Point& p, double t);
  /// O(1): records one task arrival at `p`, time `t`: it decays the cell's
  /// worker rate to `t` and counts as an event.
  void OnTaskArrival(const geo::Point& p, double t);

  /// Estimated worker-arrival rate (events per stream-time unit) in the
  /// cell containing `p`, decayed to `now`. Never negative; 0 for a
  /// never-touched cell. Queries are const and safe concurrently with each
  /// other (not with updates).
  double WorkerRate(const geo::Point& p, double now) const;

  /// Arrivals recorded since construction (workers + tasks).
  std::int64_t events() const { return events_; }

  /// Snapshot records: a "fcst <cells> <horizon> <events> <touched>"
  /// header, one "fc <cell> <worker_rate> <last>" record per
  /// touched cell (ascending cell index), and an "endfcst" trailer. Doubles
  /// are exact (common/state_archive.h), so a restore is bit-exact and a
  /// restarted service forecasts — and therefore flushes — identically
  /// (DESIGN.md §13). Reading replaces every cell; the cell count and
  /// horizon must match this estimator's configuration.
  Status Serialize(StateArchive& ar);

 private:
  struct Cell {
    double worker_rate = 0.0;
    double last = 0.0;
    bool touched = false;
  };

  explicit CellRateEstimator(const Config& config) : config_(config) {}

  Config config_;
  std::vector<Cell> cells_;
  std::int64_t events_ = 0;
};

}  // namespace fcst
}  // namespace ltc

#endif  // LTC_FCST_ARRIVAL_FORECAST_H_
