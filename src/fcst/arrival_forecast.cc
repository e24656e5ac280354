#include "fcst/arrival_forecast.h"

#include <cmath>


namespace ltc {
namespace fcst {

namespace {

/// Decay factor from a cell's last update to `now`. A non-positive elapsed
/// time (same-instant events, or a clock the caller failed to keep
/// monotone) decays nothing — the estimate is never amplified.
double Decay(double last, double now, double tau) {
  const double dt = now - last;
  if (dt <= 0.0) return 1.0;
  return std::exp(-dt / tau);
}

}  // namespace

StatusOr<CellRateEstimator> CellRateEstimator::Create(const Config& config) {
  if (!(config.horizon > 0.0)) {
    return Status::InvalidArgument("forecast horizon must be > 0");
  }
  if (config.grid.num_cells() <= 0) {
    return Status::InvalidArgument("forecast grid has no cells");
  }
  CellRateEstimator estimator(config);
  estimator.cells_.resize(static_cast<std::size_t>(config.grid.num_cells()));
  return estimator;
}

void CellRateEstimator::OnWorkerArrival(const geo::Point& p, double t) {
  Cell& cell = cells_[static_cast<std::size_t>(config_.grid.CellOf(p))];
  const double decay = Decay(cell.last, t, config_.horizon);
  cell.worker_rate = cell.worker_rate * decay + 1.0 / config_.horizon;
  cell.last = t;
  cell.touched = true;
  ++events_;
}

void CellRateEstimator::OnTaskArrival(const geo::Point& p, double t) {
  Cell& cell = cells_[static_cast<std::size_t>(config_.grid.CellOf(p))];
  cell.worker_rate *= Decay(cell.last, t, config_.horizon);
  cell.last = t;
  cell.touched = true;
  ++events_;
}

double CellRateEstimator::WorkerRate(const geo::Point& p, double now) const {
  const Cell& cell = cells_[static_cast<std::size_t>(config_.grid.CellOf(p))];
  if (!cell.touched) return 0.0;
  return cell.worker_rate * Decay(cell.last, now, config_.horizon);
}

Status CellRateEstimator::Serialize(StateArchive& ar) {
  auto n_cells = static_cast<std::int64_t>(cells_.size());
  double horizon = config_.horizon;
  std::int64_t touched = 0;
  for (const Cell& cell : cells_) touched += cell.touched ? 1 : 0;
  LTC_RETURN_IF_ERROR(ar.Record("fcst", NonNeg(&n_cells), Real(&horizon),
                                NonNeg(&events_), Count(&touched)));
  if (n_cells != static_cast<std::int64_t>(cells_.size()) ||
      horizon != config_.horizon) {
    return Status::InvalidArgument(
        "forecast: geometry/horizon mismatch with this configuration");
  }
  if (ar.reading()) cells_.assign(cells_.size(), Cell{});
  std::int64_t c = -1;  // the previous record's cell
  for (std::int64_t i = 0; i < touched; ++i) {
    std::int64_t next = c + 1;
    if (ar.writing()) {
      while (!cells_[static_cast<std::size_t>(next)].touched) ++next;
    }
    Cell cell = ar.writing() ? cells_[static_cast<std::size_t>(next)]
                             : Cell{0.0, 0.0, /*touched=*/true};
    LTC_RETURN_IF_ERROR(ar.Record("fc", Index(&next, c + 1, n_cells - 1),
                                  NonNeg(&cell.worker_rate), Real(&cell.last)));
    if (ar.reading()) cells_[static_cast<std::size_t>(next)] = cell;
    c = next;
  }
  return ar.Record("endfcst");
}

}  // namespace fcst
}  // namespace ltc
