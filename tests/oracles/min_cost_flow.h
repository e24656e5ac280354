// Test oracle: min-cost max-flow by repeated Bellman-Ford (SPFA) shortest
// paths without potentials — an independent reference for the
// SSPA-with-potentials solvers in src/flow/min_cost_flow.h. It handles any
// negative arc costs (no layered seed needed) and rejects a reachable
// negative-cost cycle instead of looping.

#ifndef LTC_ORACLES_MIN_COST_FLOW_H_
#define LTC_ORACLES_MIN_COST_FLOW_H_

#include "common/status.h"
#include "flow/graph.h"
#include "flow/min_cost_flow.h"

namespace ltc {
namespace flow {

/// Computes a minimum-cost maximum flow from `source` to `sink` by pushing
/// the bottleneck along one Bellman-Ford shortest path per iteration.
/// O(V * E) per augmentation — use only on small graphs. The network is
/// mutated in place; read per-arc flow with FlowNetwork::Flow.
StatusOr<McmfResult> BellmanFordMinCostMaxFlow(FlowNetwork* net, NodeId source,
                                               NodeId sink);

}  // namespace flow
}  // namespace ltc

#endif  // LTC_ORACLES_MIN_COST_FLOW_H_
