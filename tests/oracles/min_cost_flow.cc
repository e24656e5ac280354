#include "oracles/min_cost_flow.h"

#include <algorithm>
#include <cstdint>
#include <deque>
#include <limits>
#include <vector>

namespace ltc {
namespace flow {

namespace {

constexpr std::int64_t kInf = std::numeric_limits<std::int64_t>::max() / 4;

/// SPFA scratch: one set per oracle call.
struct SpfaState {
  std::vector<std::int64_t> dist;
  std::vector<ArcIndex> pred_slot;
  std::vector<char> in_queue;
  std::vector<std::int32_t> relax_count;
  std::deque<NodeId> queue;
};

/// SPFA (queue-based Bellman-Ford). Fills st->dist (kInf = unreachable) and
/// the predecessor slot of each reached node. Returns false if a negative
/// cycle is detected.
bool Spfa(const FlowNetwork& net, NodeId source, SpfaState* st) {
  const auto n = static_cast<std::size_t>(net.num_nodes());
  st->dist.assign(n, kInf);
  st->pred_slot.assign(n, -1);
  st->in_queue.assign(n, 0);
  st->relax_count.assign(n, 0);
  st->queue.clear();
  st->dist[static_cast<std::size_t>(source)] = 0;
  st->queue.push_back(source);
  st->in_queue[static_cast<std::size_t>(source)] = 1;
  while (!st->queue.empty()) {
    const NodeId u = st->queue.front();
    st->queue.pop_front();
    st->in_queue[static_cast<std::size_t>(u)] = 0;
    const std::int64_t du = st->dist[static_cast<std::size_t>(u)];
    for (ArcIndex s = net.OutBegin(u); s < net.OutEnd(u); ++s) {
      if (net.residual(s) <= 0) continue;
      const NodeId v = net.head(s);
      const auto vi = static_cast<std::size_t>(v);
      const std::int64_t nd = du + net.cost(s);
      if (nd >= st->dist[vi]) continue;
      st->dist[vi] = nd;
      st->pred_slot[vi] = s;
      if (st->in_queue[vi]) continue;
      if (++st->relax_count[vi] > static_cast<std::int32_t>(n)) {
        return false;  // negative cycle
      }
      // SLF heuristic: put promising nodes at the front.
      if (!st->queue.empty() &&
          nd < st->dist[static_cast<std::size_t>(st->queue.front())]) {
        st->queue.push_front(v);
      } else {
        st->queue.push_back(v);
      }
      st->in_queue[vi] = 1;
    }
  }
  return true;
}

}  // namespace

StatusOr<McmfResult> BellmanFordMinCostMaxFlow(FlowNetwork* net, NodeId source,
                                               NodeId sink) {
  if (source < 0 || source >= net->num_nodes() || sink < 0 ||
      sink >= net->num_nodes() || source == sink) {
    return Status::InvalidArgument("BellmanFordMinCostMaxFlow: bad endpoints");
  }
  McmfResult result;
  SpfaState st;
  while (true) {
    if (!Spfa(*net, source, &st)) {
      return Status::InvalidArgument(
          "BellmanFordMinCostMaxFlow: negative-cost cycle in input network");
    }
    if (st.dist[static_cast<std::size_t>(sink)] >= kInf) break;
    std::int64_t amount = kInf;
    for (NodeId v = sink; v != source;) {
      const ArcIndex s = st.pred_slot[static_cast<std::size_t>(v)];
      amount = std::min(amount, net->residual(s));
      v = net->tail(s);
    }
    std::int64_t path_cost = 0;
    for (NodeId v = sink; v != source;) {
      const ArcIndex s = st.pred_slot[static_cast<std::size_t>(v)];
      net->Push(s, amount);
      path_cost += net->cost(s);
      v = net->tail(s);
    }
    result.flow += amount;
    result.cost += amount * path_cost;
    ++result.iterations;
  }
  return result;
}

}  // namespace flow
}  // namespace ltc
