// Synthetic road networks for the geo::RoadMetric backend: a rows x cols
// street grid over the square world, with jittered intersection positions
// and per-edge congestion factors, emitted as a geo::RoadGraph
// ("ltc-road v1"; geo/road_graph.h).
//
// The generated graph always satisfies the Metric contract Build validates:
// edge weights are the (post-jitter) Euclidean edge length scaled by a
// congestion factor >= 1, so weight >= length holds per edge and the
// network never undercuts straight-line distance. The lattice keeps every
// node connected regardless of the jitter draw. Deterministic for a given
// config — the road network is infrastructure, fixed across the seeds that
// vary tasks and workers.

#ifndef LTC_GEN_ROAD_H_
#define LTC_GEN_ROAD_H_

#include <cstdint>

#include "common/status.h"
#include "geo/road_graph.h"

namespace ltc {
namespace gen {

/// Factors of the synthetic street grid.
struct RoadConfig {
  /// Lattice dimensions; rows * cols intersections, spaced to cover
  /// [0, world_side]^2 (match SyntheticConfig::grid_side so snapped legs
  /// stay short relative to dmax).
  std::int32_t rows = 32;
  std::int32_t cols = 32;
  double world_side = 1000.0;
  /// Intersections are displaced uniformly by up to this fraction of the
  /// lattice spacing in each axis (0 = a perfect grid).
  double position_jitter = 0.2;
  /// Per-edge congestion: weight = length * (1 + U[0, congestion]).
  /// 0 = free flow, travel time equals street length.
  double congestion = 0.5;
  std::uint64_t seed = 1;
};

/// Generates the street-grid road network. Deterministic for a given
/// config.
StatusOr<geo::RoadGraph> GenerateGridRoadGraph(const RoadConfig& cfg);

}  // namespace gen
}  // namespace ltc

#endif  // LTC_GEN_ROAD_H_
