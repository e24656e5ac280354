// Test oracle: Dinic's maximum-flow algorithm, an independent validator for
// the min-cost solvers' flow values (and for feasibility: can the first n
// workers possibly cover all task demand under unit assignment caps?).

#ifndef LTC_ORACLES_MAX_FLOW_H_
#define LTC_ORACLES_MAX_FLOW_H_

#include <cstdint>

#include "common/status.h"
#include "flow/graph.h"

namespace ltc {
namespace flow {

/// Computes the maximum flow from `source` to `sink` with Dinic's algorithm.
/// The network is mutated in place; read per-arc flow with FlowNetwork::Flow.
StatusOr<std::int64_t> DinicMaxFlow(FlowNetwork* net, NodeId source,
                                    NodeId sink);

}  // namespace flow
}  // namespace ltc

#endif  // LTC_ORACLES_MAX_FLOW_H_
