// The distance abstraction that decouples "distance" from "Euclidean"
// (DESIGN.md §12). The paper's accuracy function (Eq. 1) attenuates with
// ||l_w - l_t||, but the latency objective is really about *travel time*:
// a deployment measures reach over a road network, not a straight line.
// Every consumer — model::AccuracyFunction, model::EligibilityIndex, the
// schedulers, svc::ShardedStreamEngine — talks to this interface; the
// Euclidean plane is just the default backend.
//
// Contract every Metric must honour (and RoadGraph::Build enforces):
//
//   Distance(a, b) >= Euclidean ||a - b||        (the "unit speed" bound)
//
// i.e. no metric lets a worker outrun straight-line travel. This is what
// keeps the uniform GridIndex usable for pruning under *any* metric: the
// metric ball of radius r is contained in the Euclidean disk of radius r,
// so a grid radius query is always a superset and SpatialPruningCellSize
// carries over unchanged. EligibleWithin is the query that applies the
// exact-metric filter on top of that superset.

#ifndef LTC_GEO_METRIC_H_
#define LTC_GEO_METRIC_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>

#include "geo/grid_index.h"
#include "geo/point.h"

namespace ltc {
namespace geo {

/// \brief A distance function over the plane, with a pruning-friendly
/// radius query.
///
/// Thread-compatible: all methods are const and safe to call concurrently
/// (RoadMetric keeps its search workspace and memos in thread-local
/// storage). Implementations must be deterministic — Distance is a pure
/// function of its arguments, never of call order, thread or what a memo
/// holds — because assignment-log byte-identity contracts flow through it.
/// A backend whose distances come from a search should also make
/// Distance(a, b) == Distance(b, a) bit for bit, so that a search from
/// either end may answer: RoadMetric does, with integer path lengths and
/// the two off-graph legs added before the path (DESIGN.md §12).
class Metric {
 public:
  virtual ~Metric() = default;

  /// The travel distance (equivalently, unit-speed travel time) from a to b.
  /// Must satisfy Distance(a, b) >= Euclidean ||a - b||.
  virtual double Distance(const Point& a, const Point& b) const = 0;

  /// A cheap lower bound on Distance(a, b), for pruning. The default is the
  /// Euclidean distance, valid for every conforming metric; a backend may
  /// override it with a tighter bound.
  virtual double LowerBound(const Point& a, const Point& b) const {
    return geo::Distance(a, b);
  }

  /// Invokes visit(id) for every indexed point whose metric distance from
  /// `origin` is <= radius. Emission order is the grid's cell order
  /// (ascending id within a cell, unspecified across cells) — callers
  /// needing global id order sort, exactly as with GridIndex::QueryRadius.
  ///
  /// The default implementation runs the Euclidean superset query and
  /// filters by exact Distance; EuclideanMetric overrides it to skip the
  /// (then redundant) re-check so the default metric adds zero work over
  /// the pre-Metric code path.
  virtual void EligibleWithin(
      const GridIndex& grid, const Point& origin, double radius,
      const std::function<void(std::int64_t)>& visit) const;

  /// True for the Euclidean backend. Hot paths (EligibilityIndex, the
  /// streaming gather) use this to stay on the allocation-free templated
  /// GridIndex::ForEachInRadius instead of the std::function-based query.
  virtual bool euclidean() const { return false; }

  /// Human-readable backend name ("euclidean", "road(nodes=N)", ...).
  virtual std::string Name() const = 0;
};

/// \brief The default backend: straight-line distance, byte-identical to
/// the pre-Metric code path (same sqrt(SquaredDistance) arithmetic).
class EuclideanMetric final : public Metric {
 public:
  double Distance(const Point& a, const Point& b) const override {
    return geo::Distance(a, b);
  }
  double LowerBound(const Point& a, const Point& b) const override {
    return geo::Distance(a, b);
  }
  void EligibleWithin(
      const GridIndex& grid, const Point& origin, double radius,
      const std::function<void(std::int64_t)>& visit) const override {
    grid.ForEachInRadius(origin, radius, visit);
  }
  bool euclidean() const override { return true; }
  std::string Name() const override { return "euclidean"; }
};

/// The process-wide shared Euclidean metric. Consumers treat a null metric
/// pointer as "Euclidean" so existing call sites need no allocation, but a
/// non-null handle is handy where one must be passed along.
const std::shared_ptr<const Metric>& EuclideanMetricSingleton();

}  // namespace geo
}  // namespace ltc

#endif  // LTC_GEO_METRIC_H_
