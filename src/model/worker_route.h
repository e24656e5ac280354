// A worker's active route through its assigned tasks (DESIGN.md §12).
//
// The paper's model assigns a worker its whole task bundle at check-in and
// treats travel as instantaneous; a deployment's worker *drives* through
// the bundle. WorkerRoute supplies the deployment view: an ordered stop
// list grown by cheapest insertion — re-optimized exactly (Held-Karp over
// the unvisited suffix) while the suffix stays below kExactLimit stops —
// with travel costs measured by a geo::Metric from the route's insertion
// point, and unit-speed progress that svc::StreamPipeline turns into
// deterministic worker `move` events.
//
// Determinism: stop order, leg costs, and reach times are pure functions
// of (metric, origin, start time, insertion sequence); AdvanceTo only
// consumes precomputed reach times. Snapshots persist (order, visited
// count) and rebuild the rest via FromStops (svc/snapshot round-trip).

#ifndef LTC_MODEL_WORKER_ROUTE_H_
#define LTC_MODEL_WORKER_ROUTE_H_

#include <cstddef>
#include <functional>
#include <vector>

#include "geo/metric.h"
#include "geo/point.h"
#include "model/task.h"

namespace ltc {
namespace model {

/// \brief Ordered task stops for one worker, grown by cheapest insertion.
///
/// Thread-compatible for const access; mutation needs external exclusion
/// (svc pipelines mutate routes only in their sequential commit phase).
class WorkerRoute {
 public:
  /// Unvisited-suffix size at or below which Insert re-optimizes the
  /// suffix exactly instead of greedy insertion.
  static constexpr int kExactLimit = 8;

  struct Stop {
    TaskId task = -1;
    geo::Point location;
    /// Metric travel time from the previous stop (or the origin).
    double leg_cost = 0.0;
    /// Absolute stream time the stop is reached at unit speed.
    double reach_time = 0.0;
  };

  WorkerRoute() = default;
  /// A route anchored at the worker's check-in location and time.
  WorkerRoute(const geo::Point& origin, double start_time)
      : origin_(origin), start_time_(start_time) {}

  /// Inserts `task` into the unvisited suffix: exact suffix re-optimization
  /// (Held-Karp path DP) when the new suffix has <= exact_limit stops,
  /// cheapest (greedy) insertion otherwise. Returns the marginal travel
  /// cost (new remaining cost - old remaining cost, >= 0 for conforming
  /// metrics). `exact_limit` defaults to kExactLimit; pass 0 to force the
  /// greedy path (tests compare the two).
  double Insert(const geo::Metric& metric, TaskId task,
                const geo::Point& location, int exact_limit = kExactLimit);

  /// Advances route progress to absolute time `now`, invoking
  /// visit(stop) for every stop newly reached (reach_time <= now), in
  /// route order. Idempotent for non-increasing `now`.
  void AdvanceTo(double now, const std::function<void(const Stop&)>& visit);

  /// Rebuilds a route from persisted state: stops in route order with
  /// `visited` already reached. Leg costs and reach times are recomputed
  /// from the metric, so a restored route replays the exact move events a
  /// live one would have emitted.
  static WorkerRoute FromStops(
      const geo::Metric& metric, const geo::Point& origin, double start_time,
      const std::vector<std::pair<TaskId, geo::Point>>& stops,
      std::size_t visited);

  const geo::Point& origin() const { return origin_; }
  double start_time() const { return start_time_; }
  const std::vector<Stop>& stops() const { return stops_; }
  std::size_t visited() const { return visited_; }
  bool done() const { return visited_ == stops_.size(); }
  /// Total metric travel time over all stops.
  double total_cost() const;
  /// The anchor progress measures from: the last visited stop, or the
  /// origin before any stop is reached.
  const geo::Point& position() const {
    return visited_ == 0 ? origin_ : stops_[visited_ - 1].location;
  }

 private:
  /// Recomputes leg costs and reach times of the unvisited suffix from the
  /// current anchor.
  void Retime(const geo::Metric& metric);
  /// Exact minimum-cost ordering of the unvisited suffix (<= kExactLimit
  /// stops), anchored at position(). Ties prefer the lexicographically
  /// smallest stop order by task id — deterministic.
  void OptimizeSuffix(const geo::Metric& metric);
  double SuffixCost() const;

  geo::Point origin_;
  double start_time_ = 0.0;
  std::vector<Stop> stops_;
  std::size_t visited_ = 0;
};

}  // namespace model
}  // namespace ltc

#endif  // LTC_MODEL_WORKER_ROUTE_H_
