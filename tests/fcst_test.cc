// Tests of the fcst layer (DESIGN.md §13): geo::CellGrid geometry, the
// per-cell EWMA rate estimator's convergence on a stationary Poisson
// process, its exponential decay on quiet cells, clamping of backwards
// timestamps, and the bit-exact snapshot round-trip the recovery
// determinism contract depends on.

#include <cmath>
#include <string>

#include "common/random.h"
#include "fcst/arrival_forecast.h"
#include "geo/cell_grid.h"
#include "gtest/gtest.h"

namespace ltc {
namespace fcst {
namespace {

CellRateEstimator::Config GridConfig(double side, double cell_size,
                                     double horizon = 8.0) {
  CellRateEstimator::Config config;
  config.grid = geo::CellGrid(geo::Rect{0.0, 0.0, side, side}, cell_size);
  config.horizon = horizon;
  return config;
}

/// The estimator's snapshot records.
std::string Records(CellRateEstimator* estimator) {
  std::string out;
  StateArchive ar = StateArchive::Writer(&out);
  estimator->Serialize(ar).CheckOK();
  return out;
}

/// Reads `records` into *estimator; they must be consumed exactly.
Status Restore(CellRateEstimator* estimator, const std::string& records) {
  StateArchive ar = StateArchive::Reader(records);
  LTC_RETURN_IF_ERROR(estimator->Serialize(ar));
  return ar.End();
}

TEST(CellGridTest, GeometryAndClamping) {
  const geo::CellGrid grid(geo::Rect{0.0, 0.0, 100.0, 50.0}, 10.0);
  EXPECT_EQ(grid.cells_x(), 10);
  EXPECT_EQ(grid.cells_y(), 5);
  EXPECT_EQ(grid.num_cells(), 50);

  EXPECT_EQ(grid.CellOf({0.0, 0.0}), 0);
  EXPECT_EQ(grid.CellOf({15.0, 0.0}), 1);
  EXPECT_EQ(grid.CellOf({0.0, 15.0}), grid.cells_x());
  // Out-of-bounds points clamp into boundary cells, like geo::GridIndex.
  EXPECT_EQ(grid.CellOf({-40.0, -40.0}), 0);
  EXPECT_EQ(grid.CellOf({1e9, 1e9}), grid.num_cells() - 1);

  // The default grid is a single world-spanning cell.
  const geo::CellGrid whole;
  EXPECT_EQ(whole.num_cells(), 1);
  EXPECT_EQ(whole.CellOf({123.0, -456.0}), 0);
}

TEST(CellRateEstimatorTest, RejectsBadConfig) {
  CellRateEstimator::Config config = GridConfig(100.0, 10.0);
  config.horizon = 0.0;
  EXPECT_TRUE(CellRateEstimator::Create(config).status().IsInvalidArgument());
  config.horizon = -1.0;
  EXPECT_TRUE(CellRateEstimator::Create(config).status().IsInvalidArgument());
}

TEST(CellRateEstimatorTest, UntouchedCellsReadZero) {
  auto estimator = CellRateEstimator::Create(GridConfig(100.0, 10.0));
  ASSERT_TRUE(estimator.ok());
  EXPECT_EQ(estimator.value().WorkerRate({5.0, 5.0}, 10.0), 0.0);
  EXPECT_EQ(estimator.value().events(), 0);
}

// On a stationary Poisson process of intensity lambda, the continuous-time
// EWMA converges to lambda in expectation (each arrival adds 1/tau and
// decays with time constant tau). After many horizons of warm-up, a single
// trajectory's estimate must sit near lambda — the estimator the adaptive
// deadline wagers on.
TEST(CellRateEstimatorTest, ConvergesToPoissonRate) {
  const double lambda = 5.0;
  const double tau = 8.0;
  auto estimator = CellRateEstimator::Create(GridConfig(1.0, 1.0, tau));
  ASSERT_TRUE(estimator.ok());

  Rng rng(2024);
  double t = 0.0;
  while (t < 60.0 * tau) {
    t += rng.Exponential(lambda);
    estimator.value().OnWorkerArrival({0.5, 0.5}, t);
  }
  const double estimate = estimator.value().WorkerRate({0.5, 0.5}, t);
  EXPECT_NEAR(estimate, lambda, 0.3 * lambda)
      << "EWMA did not converge to the Poisson rate";
}

TEST(CellRateEstimatorTest, QuietCellsDecayExponentially) {
  const double tau = 4.0;
  auto created = CellRateEstimator::Create(GridConfig(100.0, 10.0, tau));
  ASSERT_TRUE(created.ok());
  CellRateEstimator& estimator = created.value();

  estimator.OnWorkerArrival({5.0, 5.0}, 0.0);
  const double initial = estimator.WorkerRate({5.0, 5.0}, 0.0);
  EXPECT_DOUBLE_EQ(initial, 1.0 / tau);
  // One, two, three time constants of silence.
  for (int k = 1; k <= 3; ++k) {
    EXPECT_NEAR(estimator.WorkerRate({5.0, 5.0}, k * tau),
                initial * std::exp(-k), 1e-12);
  }
  // Worker arrivals do not bleed into other cells.
  EXPECT_EQ(estimator.WorkerRate({55.0, 55.0}, 1.0), 0.0);
}

TEST(CellRateEstimatorTest, BackwardsQueriesNeverAmplify) {
  auto created = CellRateEstimator::Create(GridConfig(100.0, 10.0));
  ASSERT_TRUE(created.ok());
  CellRateEstimator& estimator = created.value();
  estimator.OnWorkerArrival({5.0, 5.0}, 10.0);
  // A query before the last update clamps decay at 1, never > 1.
  EXPECT_DOUBLE_EQ(estimator.WorkerRate({5.0, 5.0}, 5.0),
                   estimator.WorkerRate({5.0, 5.0}, 10.0));
}

// The recovery contract: restoring a serialized estimator must reproduce
// every future rate — and every future flush decision — bit-exactly, so
// the blob carries %.17g doubles and the round-trip is byte-stable.
TEST(CellRateEstimatorTest, SnapshotRoundTripIsBitExact) {
  auto created = CellRateEstimator::Create(GridConfig(100.0, 10.0));
  ASSERT_TRUE(created.ok());
  CellRateEstimator& estimator = created.value();

  Rng rng(7);
  double t = 0.0;
  for (int i = 0; i < 500; ++i) {
    t += rng.Exponential(20.0);
    const geo::Point p{rng.Uniform(0.0, 100.0), rng.Uniform(0.0, 100.0)};
    if (rng.Bernoulli(0.8)) {
      estimator.OnWorkerArrival(p, t);
    } else {
      estimator.OnTaskArrival(p, t);
    }
  }

  const std::string blob = Records(&estimator);

  auto restored = CellRateEstimator::Create(GridConfig(100.0, 10.0));
  ASSERT_TRUE(restored.ok());
  ASSERT_TRUE(Restore(&restored.value(), blob).ok());
  EXPECT_EQ(restored.value().events(), estimator.events());

  for (int i = 0; i < 50; ++i) {
    const geo::Point p{rng.Uniform(0.0, 100.0), rng.Uniform(0.0, 100.0)};
    EXPECT_EQ(restored.value().WorkerRate(p, t + 1.0),
              estimator.WorkerRate(p, t + 1.0));
  }
  EXPECT_EQ(blob, Records(&restored.value()));

  // A geometry mismatch is rejected, not silently misread.
  auto mismatched = CellRateEstimator::Create(GridConfig(100.0, 25.0));
  ASSERT_TRUE(mismatched.ok());
  EXPECT_FALSE(Restore(&mismatched.value(), blob).ok());
}

TEST(CellRateEstimatorTest, SubnormalRateSurvivesSnapshot) {
  // A cell that sees a worker, then only a task ~5.7k time units later
  // (tau 8), decays its worker rate into the subnormal range. The snapshot
  // must still restore, bit-exactly.
  auto created = CellRateEstimator::Create(GridConfig(100.0, 10.0));
  ASSERT_TRUE(created.ok());
  CellRateEstimator& estimator = created.value();
  estimator.OnWorkerArrival({5.0, 5.0}, 0.0);
  estimator.OnTaskArrival({5.0, 5.0}, 5700.0);
  const double rate = estimator.WorkerRate({5.0, 5.0}, 5700.0);
  ASSERT_EQ(std::fpclassify(rate), FP_SUBNORMAL);

  const std::string blob = Records(&estimator);
  auto restored = CellRateEstimator::Create(GridConfig(100.0, 10.0));
  ASSERT_TRUE(restored.ok());
  const Status status = Restore(&restored.value(), blob);
  ASSERT_TRUE(status.ok()) << status.ToString();
  EXPECT_EQ(restored.value().WorkerRate({5.0, 5.0}, 5700.0), rate);
  EXPECT_EQ(Records(&restored.value()), blob);
}

// A task arrival decays its cell's worker rate to its instant and counts as
// an event, but adds no rate; the snapshot lists touched cells ascending.
TEST(CellRateEstimatorTest, TaskArrivalsOnlyDecayTheWorkerRate) {
  const double tau = 8.0;
  auto created = CellRateEstimator::Create(GridConfig(100.0, 10.0, tau));
  ASSERT_TRUE(created.ok());
  CellRateEstimator& estimator = created.value();
  estimator.OnWorkerArrival({95.0, 95.0}, 1.0);
  estimator.OnWorkerArrival({5.0, 5.0}, 1.0);
  estimator.OnTaskArrival({5.0, 5.0}, 3.0);
  estimator.OnTaskArrival({55.0, 55.0}, 3.0);
  EXPECT_EQ(estimator.events(), 4);
  EXPECT_EQ(estimator.WorkerRate({5.0, 5.0}, 3.0),
            (1.0 / tau) * std::exp(-2.0 / tau));
  EXPECT_EQ(estimator.WorkerRate({55.0, 55.0}, 3.0), 0.0);

  const std::string blob = Records(&estimator);
  const std::size_t low = blob.find("fc 0 ");
  const std::size_t mid = blob.find("fc 55 ");
  const std::size_t high = blob.find("fc 99 ");
  ASSERT_NE(low, std::string::npos) << blob;
  ASSERT_NE(mid, std::string::npos) << blob;
  ASSERT_NE(high, std::string::npos) << blob;
  EXPECT_LT(low, mid);
  EXPECT_LT(mid, high);
}

}  // namespace
}  // namespace fcst
}  // namespace ltc
