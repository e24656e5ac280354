#include "gen/road.h"

#include <utility>
#include <vector>

#include "common/random.h"
#include "geo/point.h"

namespace ltc {
namespace gen {

StatusOr<geo::RoadGraph> GenerateGridRoadGraph(const RoadConfig& cfg) {
  if (cfg.rows < 2 || cfg.cols < 2) {
    return Status::InvalidArgument("road: need a lattice of at least 2x2");
  }
  if (cfg.world_side <= 0.0) {
    return Status::InvalidArgument("road: world_side must be > 0");
  }
  if (cfg.position_jitter < 0.0 || cfg.position_jitter >= 0.5) {
    // At 0.5 two adjacent intersections could land on the same point,
    // making the edge between them a zero-length self-loop in disguise.
    return Status::InvalidArgument("road: position_jitter must be in [0, 0.5)");
  }
  if (cfg.congestion < 0.0) {
    return Status::InvalidArgument("road: congestion must be >= 0");
  }

  const double spacing_x = cfg.world_side / static_cast<double>(cfg.cols - 1);
  const double spacing_y = cfg.world_side / static_cast<double>(cfg.rows - 1);

  Rng rng(cfg.seed);
  std::vector<geo::Point> nodes;
  nodes.reserve(static_cast<std::size_t>(cfg.rows) *
                static_cast<std::size_t>(cfg.cols));
  for (std::int32_t r = 0; r < cfg.rows; ++r) {
    for (std::int32_t c = 0; c < cfg.cols; ++c) {
      const double jx =
          rng.Uniform(-cfg.position_jitter, cfg.position_jitter) * spacing_x;
      const double jy =
          rng.Uniform(-cfg.position_jitter, cfg.position_jitter) * spacing_y;
      nodes.push_back(geo::Point{static_cast<double>(c) * spacing_x + jx,
                                 static_cast<double>(r) * spacing_y + jy});
    }
  }

  auto id = [&cfg](std::int32_t r, std::int32_t c) {
    return r * cfg.cols + c;
  };
  std::vector<geo::RoadGraph::Edge> edges;
  edges.reserve(static_cast<std::size_t>(cfg.rows) * cfg.cols * 2);
  // Streets east and north of each intersection; the congestion factor is
  // >= 1, so weight >= Euclidean length holds for any jitter draw and
  // Build's Metric-contract validation always passes.
  for (std::int32_t r = 0; r < cfg.rows; ++r) {
    for (std::int32_t c = 0; c < cfg.cols; ++c) {
      if (c + 1 < cfg.cols) {
        geo::RoadGraph::Edge e;
        e.u = id(r, c);
        e.v = id(r, c + 1);
        e.weight = geo::Distance(nodes[static_cast<std::size_t>(e.u)],
                                 nodes[static_cast<std::size_t>(e.v)]) *
                   (1.0 + rng.Uniform(0.0, cfg.congestion));
        edges.push_back(e);
      }
      if (r + 1 < cfg.rows) {
        geo::RoadGraph::Edge e;
        e.u = id(r, c);
        e.v = id(r + 1, c);
        e.weight = geo::Distance(nodes[static_cast<std::size_t>(e.u)],
                                 nodes[static_cast<std::size_t>(e.v)]) *
                   (1.0 + rng.Uniform(0.0, cfg.congestion));
        edges.push_back(e);
      }
    }
  }

  auto graph = geo::RoadGraph::Build(std::move(nodes), edges);
  if (!graph.ok()) {
    return graph.status().WithContext("GenerateGridRoadGraph");
  }
  return graph;
}

}  // namespace gen
}  // namespace ltc
