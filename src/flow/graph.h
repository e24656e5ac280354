// Residual flow network representation shared by all flow solvers.
//
// Arcs live in a CSR (compressed sparse row) layout: all residual arcs out
// of a node occupy one contiguous slot range, so solver inner loops walk
// sequential memory instead of chasing linked-list pointers. Networks are
// assembled through FlowNetworkBuilder (two-pass counting sort); both the
// builder and the network recycle their arrays across Build() and
// ApplyDelta() cycles, which is what lets MCF-LTC solve thousands of
// batches without reallocating (see DESIGN.md "Hot-path architecture").
//
// Capacities and costs are int64: the MCF-LTC algorithm scales its
// real-valued Acc* costs to integers before building the network (see
// algo/mcf_stream.cc) so that shortest-path computations are exact.

#ifndef LTC_FLOW_GRAPH_H_
#define LTC_FLOW_GRAPH_H_

#include <cstdint>
#include <vector>

#include "common/status.h"

namespace ltc {
namespace flow {

using NodeId = std::int32_t;
/// Id of a *forward* (user-added) arc: 0..num_arcs()-1, in AddArc order.
using ArcId = std::int32_t;
/// Position of a residual half-arc in the CSR slot array: each forward arc
/// owns two slots (forward + reverse), grouped by tail node.
using ArcIndex = std::int32_t;

/// \brief Immutable-topology residual network in CSR form. Only residual
/// capacities mutate (via Push); rebuild through FlowNetworkBuilder to
/// change the topology.
class FlowNetwork {
 public:
  /// Empty network; populate with FlowNetworkBuilder::Build.
  FlowNetwork() = default;

  NodeId num_nodes() const { return num_nodes_; }
  /// Number of forward (user-added) arcs.
  ArcId num_arcs() const { return static_cast<ArcId>(arc_slot_.size()); }
  /// Number of residual half-arc slots (2 * num_arcs).
  ArcIndex num_slots() const { return static_cast<ArcIndex>(head_.size()); }

  /// CSR iteration over the residual arcs leaving `v`:
  ///   for (ArcIndex s = net.OutBegin(v); s < net.OutEnd(v); ++s) ...
  ArcIndex OutBegin(NodeId v) const {
    return first_out_[static_cast<std::size_t>(v)];
  }
  ArcIndex OutEnd(NodeId v) const {
    return first_out_[static_cast<std::size_t>(v) + 1];
  }

  NodeId head(ArcIndex s) const { return head_[static_cast<std::size_t>(s)]; }
  NodeId tail(ArcIndex s) const {
    return head_[static_cast<std::size_t>(rev(s))];
  }
  std::int64_t residual(ArcIndex s) const {
    return residual_[static_cast<std::size_t>(s)];
  }
  std::int64_t cost(ArcIndex s) const {
    return cost_[static_cast<std::size_t>(s)];
  }
  /// Slot of the paired reverse half-arc.
  ArcIndex rev(ArcIndex s) const { return rev_[static_cast<std::size_t>(s)]; }

  /// Slot of the forward half of user arc `arc`.
  ArcIndex ArcSlot(ArcId arc) const {
    return arc_slot_[static_cast<std::size_t>(arc)];
  }

  /// Flow currently on a *forward* user arc (capacity consumed so far).
  /// Invariant: the reverse slot's residual equals the pushed flow.
  std::int64_t Flow(ArcId arc) const {
    return residual_[static_cast<std::size_t>(rev(ArcSlot(arc)))];
  }

  /// Pushes `amount` units along slot s (reduces residual, grows reverse).
  void Push(ArcIndex s, std::int64_t amount) {
    residual_[static_cast<std::size_t>(s)] -= amount;
    residual_[static_cast<std::size_t>(rev(s))] += amount;
  }

  /// Resets all arcs to their original capacities (removes all flow).
  void ResetFlow();

 private:
  friend class FlowNetworkBuilder;

  NodeId num_nodes_ = 0;
  std::vector<ArcIndex> first_out_;  // per node, size num_nodes + 1
  // Per residual slot, grouped by tail node.
  std::vector<NodeId> head_;
  std::vector<std::int64_t> residual_;
  std::vector<std::int64_t> cost_;
  std::vector<ArcIndex> rev_;
  // Per forward user arc: its forward slot.
  std::vector<ArcIndex> arc_slot_;
};

/// \brief Accumulates nodes/arcs and emits a FlowNetwork via a two-pass
/// counting sort. Reset() keeps all array capacity, so one builder plus one
/// network can be recycled across many build/solve cycles with zero
/// steady-state allocation. ApplyDelta edits the arc set *in place* and
/// re-emits the CSR while preserving the flow carried by surviving arcs —
/// the warm-start path of the incremental MCF solver (DESIGN.md §10).
class FlowNetworkBuilder {
 public:
  /// One arc to append in an ApplyDelta call.
  struct ArcSpec {
    NodeId from = 0;
    NodeId to = 0;
    std::int64_t capacity = 0;
    std::int64_t cost = 0;
  };

  explicit FlowNetworkBuilder(NodeId num_nodes = 0) { Reset(num_nodes); }

  /// Drops all arcs and resizes to `num_nodes` nodes; capacity is kept. The
  /// dirtied prefix of every arc array is zeroed first (poisoned with
  /// kResetPoison in Debug builds) so no stale capacity/cost survives a
  /// Reset into the next fill — a reused builder whose caller under-fills
  /// reads deterministic zeros, never the previous network's arcs.
  void Reset(NodeId num_nodes);

  /// Debug-build poison written by Reset (visible for tests).
  static constexpr std::int64_t kResetPoison = ~std::int64_t{0xDEAD};

  /// Adds a node, returning its id.
  NodeId AddNode() { return num_nodes_++; }

  /// Adds a directed arc from->to with the given capacity (>= 0) and cost.
  /// The residual reverse arc (capacity 0, cost -cost) is implied. Returns
  /// the forward arc id.
  StatusOr<ArcId> AddArc(NodeId from, NodeId to, std::int64_t capacity,
                         std::int64_t cost);

  NodeId num_nodes() const { return num_nodes_; }
  ArcId num_arcs() const { return static_cast<ArcId>(to_.size()); }

  // Accessors over the accumulated (not-yet-built) arcs, by ArcId.
  NodeId arc_from(ArcId a) const { return from_[static_cast<std::size_t>(a)]; }
  NodeId arc_to(ArcId a) const { return to_[static_cast<std::size_t>(a)]; }
  std::int64_t arc_capacity(ArcId a) const {
    return cap_[static_cast<std::size_t>(a)];
  }
  std::int64_t arc_cost(ArcId a) const {
    return cost_[static_cast<std::size_t>(a)];
  }

  /// Lays the accumulated arcs out in CSR form inside *net, reusing its
  /// arrays. The builder keeps its contents (call Reset to start over).
  void Build(FlowNetwork* net);

  /// In-place topology delta: drops the arcs listed in `removed` (each must
  /// carry zero flow in *net; cancel flow before removal), appends `added`,
  /// and rebuilds *net's CSR, preserving the flow on every surviving arc.
  ///
  /// Precondition: *net is the product of this builder's latest Build or
  /// ApplyDelta (surviving flows are read from it). Surviving arcs keep
  /// their relative order but are renumbered; *remap (resized to the old
  /// arc count) maps old ArcId -> new ArcId, -1 for removed. Added arcs get
  /// ids starting at the number of survivors, in `added` order.
  Status ApplyDelta(FlowNetwork* net, const std::vector<ArcSpec>& added,
                    const std::vector<ArcId>& removed,
                    std::vector<ArcId>* remap);

 private:
  NodeId num_nodes_ = 0;
  // Per forward arc, in AddArc order.
  std::vector<NodeId> from_;
  std::vector<NodeId> to_;
  std::vector<std::int64_t> cap_;
  std::vector<std::int64_t> cost_;
  std::vector<ArcIndex> cursor_;     // Build scratch (per node)
  std::vector<std::int64_t> flow_;   // ApplyDelta scratch (per arc)
  std::vector<char> drop_;           // ApplyDelta scratch (per arc)
};

}  // namespace flow
}  // namespace ltc

#endif  // LTC_FLOW_GRAPH_H_
