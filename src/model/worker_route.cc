#include "model/worker_route.h"

#include <algorithm>
#include <cmath>
#include <limits>

namespace ltc {
namespace model {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

}  // namespace

double WorkerRoute::SuffixCost() const {
  double cost = 0.0;
  for (std::size_t i = visited_; i < stops_.size(); ++i) {
    cost += stops_[i].leg_cost;
  }
  return cost;
}

double WorkerRoute::total_cost() const {
  double cost = 0.0;
  for (const Stop& s : stops_) cost += s.leg_cost;
  return cost;
}

void WorkerRoute::Retime(const geo::Metric& metric) {
  geo::Point prev = position();
  double clock = visited_ == 0 ? start_time_ : stops_[visited_ - 1].reach_time;
  for (std::size_t i = visited_; i < stops_.size(); ++i) {
    stops_[i].leg_cost = metric.Distance(prev, stops_[i].location);
    clock += stops_[i].leg_cost;
    stops_[i].reach_time = clock;
    prev = stops_[i].location;
  }
}

void WorkerRoute::OptimizeSuffix(const geo::Metric& metric) {
  const std::size_t m = stops_.size() - visited_;
  if (m <= 1) return;
  const int n = static_cast<int>(m);
  const geo::Point anchor = position();

  // Pairwise travel times once; the DP then runs on the matrix.
  std::vector<double> from_anchor(m);
  std::vector<double> pair_cost(m * m, 0.0);
  for (std::size_t i = 0; i < m; ++i) {
    from_anchor[i] = metric.Distance(anchor, stops_[visited_ + i].location);
    for (std::size_t j = 0; j < m; ++j) {
      if (i != j) {
        pair_cost[i * m + j] = metric.Distance(
            stops_[visited_ + i].location, stops_[visited_ + j].location);
      }
    }
  }

  // Held-Karp open-path DP: dp[mask][j] = cheapest anchor-rooted path
  // covering `mask` and ending at j. Ties prefer the smaller predecessor
  // and smaller endpoint, so the chosen order is deterministic.
  const std::size_t full = (std::size_t{1} << n) - 1;
  std::vector<double> dp((full + 1) * m, kInf);
  std::vector<int> parent((full + 1) * m, -1);
  for (int j = 0; j < n; ++j) {
    dp[(std::size_t{1} << j) * m + static_cast<std::size_t>(j)] =
        from_anchor[static_cast<std::size_t>(j)];
  }
  for (std::size_t mask = 1; mask <= full; ++mask) {
    for (int j = 0; j < n; ++j) {
      if (!(mask & (std::size_t{1} << j))) continue;
      const double base = dp[mask * m + static_cast<std::size_t>(j)];
      if (base == kInf) continue;
      for (int k = 0; k < n; ++k) {
        if (mask & (std::size_t{1} << k)) continue;
        const std::size_t next = mask | (std::size_t{1} << k);
        const double cand =
            base + pair_cost[static_cast<std::size_t>(j) * m +
                             static_cast<std::size_t>(k)];
        auto& slot = dp[next * m + static_cast<std::size_t>(k)];
        if (cand < slot) {
          slot = cand;
          parent[next * m + static_cast<std::size_t>(k)] = j;
        }
      }
    }
  }
  int end = 0;
  for (int j = 1; j < n; ++j) {
    if (dp[full * m + static_cast<std::size_t>(j)] <
        dp[full * m + static_cast<std::size_t>(end)]) {
      end = j;
    }
  }
  std::vector<int> order(m);
  std::size_t mask = full;
  for (std::size_t i = m; i-- > 0;) {
    order[i] = end;
    const int prev = parent[mask * m + static_cast<std::size_t>(end)];
    mask &= ~(std::size_t{1} << end);
    end = prev;
  }

  std::vector<Stop> reordered(m);
  for (std::size_t i = 0; i < m; ++i) {
    reordered[i] = stops_[visited_ + static_cast<std::size_t>(order[i])];
  }
  std::copy(reordered.begin(), reordered.end(), stops_.begin() + visited_);
}

double WorkerRoute::Insert(const geo::Metric& metric, TaskId task,
                           const geo::Point& location, int exact_limit) {
  const double before = SuffixCost();
  Stop stop;
  stop.task = task;
  stop.location = location;

  const std::size_t suffix = stops_.size() - visited_;
  if (static_cast<int>(suffix) + 1 <= exact_limit) {
    stops_.push_back(stop);
    OptimizeSuffix(metric);
  } else {
    // Greedy cheapest insertion over the unvisited suffix. Position i
    // inserts before the i-th unvisited stop; `suffix` appends. Ties take
    // the earliest position.
    std::size_t best_pos = suffix;
    double best_delta = kInf;
    geo::Point prev = position();
    for (std::size_t i = 0; i <= suffix; ++i) {
      const double to_new = metric.Distance(prev, location);
      double delta;
      if (i < suffix) {
        const geo::Point& next = stops_[visited_ + i].location;
        delta = to_new + metric.Distance(location, next) -
                metric.Distance(prev, next);
      } else {
        delta = to_new;
      }
      if (std::isfinite(delta) && delta < best_delta) {
        best_delta = delta;
        best_pos = i;
      }
      if (i < suffix) prev = stops_[visited_ + i].location;
    }
    stops_.insert(
        stops_.begin() + static_cast<std::ptrdiff_t>(visited_ + best_pos),
        stop);
  }
  Retime(metric);
  return SuffixCost() - before;
}

void WorkerRoute::AdvanceTo(double now,
                            const std::function<void(const Stop&)>& visit) {
  while (visited_ < stops_.size() && stops_[visited_].reach_time <= now) {
    visit(stops_[visited_]);
    ++visited_;
  }
}

WorkerRoute WorkerRoute::FromStops(
    const geo::Metric& metric, const geo::Point& origin, double start_time,
    const std::vector<std::pair<TaskId, geo::Point>>& stops,
    std::size_t visited) {
  WorkerRoute route(origin, start_time);
  route.stops_.reserve(stops.size());
  for (const auto& [task, location] : stops) {
    Stop s;
    s.task = task;
    s.location = location;
    route.stops_.push_back(s);
  }
  // Time the full path first (visited_ = 0 anchors at the origin), then
  // mark progress; earlier legs keep their as-driven costs and times.
  route.Retime(metric);
  route.visited_ = std::min(visited, route.stops_.size());
  return route;
}

}  // namespace model
}  // namespace ltc
