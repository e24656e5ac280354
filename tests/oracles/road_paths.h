// Test oracle: a textbook single-source Dijkstra on integer edge lengths,
// the reference for geo::RoadGraph's tick distances. It shares nothing with
// the library's search: no workspace, no resumption, no reach rows, and a
// std::priority_queue with lazy deletion instead of the indexed heap.

#ifndef LTC_ORACLES_ROAD_PATHS_H_
#define LTC_ORACLES_ROAD_PATHS_H_

#include <cstdint>
#include <vector>

namespace ltc {
namespace geo {

/// An undirected edge u—v of integer length `ticks` (> 0).
struct TickEdge {
  std::int32_t u = 0;
  std::int32_t v = 0;
  std::int64_t ticks = 0;
};

/// Shortest-path lengths from `source` over the undirected `edges`, in
/// ticks; INT64_MAX for nodes in another component.
std::vector<std::int64_t> IntegerDijkstra(std::int32_t num_nodes,
                                          const std::vector<TickEdge>& edges,
                                          std::int32_t source);

}  // namespace geo
}  // namespace ltc

#endif  // LTC_ORACLES_ROAD_PATHS_H_
