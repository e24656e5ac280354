#include "oracles/road_paths.h"

#include <functional>
#include <limits>
#include <queue>
#include <utility>

namespace ltc {
namespace geo {

std::vector<std::int64_t> IntegerDijkstra(std::int32_t num_nodes,
                                          const std::vector<TickEdge>& edges,
                                          std::int32_t source) {
  const auto n = static_cast<std::size_t>(num_nodes);
  std::vector<std::vector<std::pair<std::int32_t, std::int64_t>>> adj(n);
  for (const TickEdge& e : edges) {
    adj[static_cast<std::size_t>(e.u)].push_back({e.v, e.ticks});
    adj[static_cast<std::size_t>(e.v)].push_back({e.u, e.ticks});
  }
  constexpr std::int64_t kInf = std::numeric_limits<std::int64_t>::max();
  std::vector<std::int64_t> dist(n, kInf);
  using Entry = std::pair<std::int64_t, std::int32_t>;
  std::priority_queue<Entry, std::vector<Entry>, std::greater<Entry>> queue;
  dist[static_cast<std::size_t>(source)] = 0;
  queue.push({0, source});
  while (!queue.empty()) {
    const auto [d, u] = queue.top();
    queue.pop();
    if (d > dist[static_cast<std::size_t>(u)]) continue;  // stale entry
    for (const auto& [v, w] : adj[static_cast<std::size_t>(u)]) {
      if (d + w < dist[static_cast<std::size_t>(v)]) {
        dist[static_cast<std::size_t>(v)] = d + w;
        queue.push({d + w, v});
      }
    }
  }
  return dist;
}

}  // namespace geo
}  // namespace ltc
