#include "oracles/max_flow.h"

#include <algorithm>
#include <limits>
#include <vector>

namespace ltc {
namespace flow {

namespace {

constexpr std::int64_t kInf = std::numeric_limits<std::int64_t>::max() / 4;

/// BFS level graph; returns true if the sink is reachable.
bool BuildLevels(const FlowNetwork& net, NodeId source, NodeId sink,
                 std::vector<std::int32_t>* level) {
  std::fill(level->begin(), level->end(), -1);
  std::vector<NodeId> queue;
  queue.reserve(static_cast<std::size_t>(net.num_nodes()));
  queue.push_back(source);
  (*level)[static_cast<std::size_t>(source)] = 0;
  for (std::size_t qi = 0; qi < queue.size(); ++qi) {
    const NodeId u = queue[qi];
    for (ArcIndex s = net.OutBegin(u); s < net.OutEnd(u); ++s) {
      if (net.residual(s) <= 0) continue;
      const NodeId v = net.head(s);
      if ((*level)[static_cast<std::size_t>(v)] >= 0) continue;
      (*level)[static_cast<std::size_t>(v)] =
          (*level)[static_cast<std::size_t>(u)] + 1;
      queue.push_back(v);
    }
  }
  return (*level)[static_cast<std::size_t>(sink)] >= 0;
}

/// DFS blocking flow with arc iterators (current-arc optimisation).
std::int64_t BlockingDfs(FlowNetwork* net, NodeId u, NodeId sink,
                         std::int64_t limit,
                         const std::vector<std::int32_t>& level,
                         std::vector<ArcIndex>* iter) {
  if (u == sink || limit == 0) return limit;
  std::int64_t pushed_total = 0;
  ArcIndex& s = (*iter)[static_cast<std::size_t>(u)];
  for (; s < net->OutEnd(u); ++s) {
    const NodeId v = net->head(s);
    if (net->residual(s) <= 0 ||
        level[static_cast<std::size_t>(v)] !=
            level[static_cast<std::size_t>(u)] + 1) {
      continue;
    }
    const std::int64_t pushed = BlockingDfs(
        net, v, sink, std::min(limit, net->residual(s)), level, iter);
    if (pushed > 0) {
      net->Push(s, pushed);
      pushed_total += pushed;
      limit -= pushed;
      if (limit == 0) break;
    }
  }
  return pushed_total;
}

}  // namespace

StatusOr<std::int64_t> DinicMaxFlow(FlowNetwork* net, NodeId source,
                                    NodeId sink) {
  if (source < 0 || source >= net->num_nodes() || sink < 0 ||
      sink >= net->num_nodes()) {
    return Status::InvalidArgument("DinicMaxFlow: bad source/sink");
  }
  if (source == sink) {
    return Status::InvalidArgument("DinicMaxFlow: source == sink");
  }
  const auto n = static_cast<std::size_t>(net->num_nodes());
  std::vector<std::int32_t> level(n);
  std::vector<ArcIndex> iter(n);
  std::int64_t total = 0;
  while (BuildLevels(*net, source, sink, &level)) {
    for (std::size_t v = 0; v < n; ++v) {
      iter[v] = net->OutBegin(static_cast<NodeId>(v));
    }
    total += BlockingDfs(net, source, sink, kInf, level, &iter);
  }
  return total;
}

}  // namespace flow
}  // namespace ltc
