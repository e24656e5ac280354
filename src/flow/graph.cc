#include "flow/graph.h"

#include <algorithm>

#include "common/string_util.h"

namespace ltc {
namespace flow {

void FlowNetwork::ResetFlow() {
  // Move every reverse slot's residual (== pushed flow) back to its forward
  // slot; restores original capacities without storing them separately.
  for (const ArcIndex s : arc_slot_) {
    const auto f = static_cast<std::size_t>(s);
    const auto r = static_cast<std::size_t>(rev_[f]);
    residual_[f] += residual_[r];
    residual_[r] = 0;
  }
}

void FlowNetworkBuilder::Reset(NodeId num_nodes) {
  num_nodes_ = num_nodes;
  // Scrub the dirtied prefix before clearing: vector::clear keeps the
  // elements' bytes alive in capacity, and the next fill may stop short of
  // the old size — any such slot must read as zero (poison in Debug so an
  // out-of-bounds ArcId read fails loudly), never as the previous network's
  // capacity or cost.
#ifdef NDEBUG
  constexpr std::int64_t scrub = 0;
#else
  constexpr std::int64_t scrub = kResetPoison;
#endif
  std::fill(from_.begin(), from_.end(), static_cast<NodeId>(scrub));
  std::fill(to_.begin(), to_.end(), static_cast<NodeId>(scrub));
  std::fill(cap_.begin(), cap_.end(), scrub);
  std::fill(cost_.begin(), cost_.end(), scrub);
  from_.clear();
  to_.clear();
  cap_.clear();
  cost_.clear();
}

StatusOr<ArcId> FlowNetworkBuilder::AddArc(NodeId from, NodeId to,
                                           std::int64_t capacity,
                                           std::int64_t cost) {
  if (from < 0 || from >= num_nodes_ || to < 0 || to >= num_nodes_) {
    return Status::InvalidArgument(
        StrFormat("AddArc(%d, %d): node out of range [0, %d)", from, to,
                  num_nodes_));
  }
  if (capacity < 0) {
    return Status::InvalidArgument("AddArc: negative capacity");
  }
  from_.push_back(from);
  to_.push_back(to);
  cap_.push_back(capacity);
  cost_.push_back(cost);
  return static_cast<ArcId>(to_.size() - 1);
}

Status FlowNetworkBuilder::ApplyDelta(FlowNetwork* net,
                                      const std::vector<ArcSpec>& added,
                                      const std::vector<ArcId>& removed,
                                      std::vector<ArcId>* remap) {
  const ArcId old_arcs = num_arcs();
  if (net->num_arcs() != old_arcs || net->num_nodes() > num_nodes_) {
    return Status::FailedPrecondition(
        StrFormat("ApplyDelta: network (%d nodes, %d arcs) is not this "
                  "builder's latest build (%d nodes, %d arcs)",
                  net->num_nodes(), net->num_arcs(), num_nodes_, old_arcs));
  }
  for (const ArcSpec& a : added) {
    if (a.from < 0 || a.from >= num_nodes_ || a.to < 0 || a.to >= num_nodes_) {
      return Status::InvalidArgument(
          StrFormat("ApplyDelta: added arc (%d, %d) out of range [0, %d)",
                    a.from, a.to, num_nodes_));
    }
    if (a.capacity < 0) {
      return Status::InvalidArgument("ApplyDelta: negative added capacity");
    }
  }
  drop_.assign(static_cast<std::size_t>(old_arcs), 0);
  for (const ArcId a : removed) {
    if (a < 0 || a >= old_arcs) {
      return Status::InvalidArgument(
          StrFormat("ApplyDelta: removed arc %d out of range [0, %d)", a,
                    old_arcs));
    }
    if (drop_[static_cast<std::size_t>(a)] != 0) {
      return Status::InvalidArgument(
          StrFormat("ApplyDelta: arc %d removed twice", a));
    }
    if (net->Flow(a) != 0) {
      return Status::FailedPrecondition(
          StrFormat("ApplyDelta: removed arc %d still carries flow %lld; "
                    "cancel it first",
                    a, static_cast<long long>(net->Flow(a))));
    }
    drop_[static_cast<std::size_t>(a)] = 1;
  }

  // Snapshot surviving flows, then compact the arc arrays stably. The remap
  // lets callers translate retained ArcIds.
  flow_.resize(static_cast<std::size_t>(old_arcs));
  remap->assign(static_cast<std::size_t>(old_arcs), -1);
  ArcId next = 0;
  for (ArcId a = 0; a < old_arcs; ++a) {
    const auto i = static_cast<std::size_t>(a);
    if (drop_[i] != 0) continue;
    const std::int64_t flow = net->Flow(a);
    const auto j = static_cast<std::size_t>(next);
    from_[j] = from_[i];
    to_[j] = to_[i];
    cap_[j] = cap_[i];
    cost_[j] = cost_[i];
    flow_[j] = flow;
    (*remap)[i] = next;
    ++next;
  }
  from_.resize(static_cast<std::size_t>(next));
  to_.resize(static_cast<std::size_t>(next));
  cap_.resize(static_cast<std::size_t>(next));
  cost_.resize(static_cast<std::size_t>(next));
  flow_.resize(static_cast<std::size_t>(next));
  for (const ArcSpec& a : added) {
    from_.push_back(a.from);
    to_.push_back(a.to);
    cap_.push_back(a.capacity);
    cost_.push_back(a.cost);
    flow_.push_back(0);
  }

  Build(net);
  // Re-install the surviving flows onto the fresh CSR.
  for (ArcId a = 0; a < next; ++a) {
    const std::int64_t flow = flow_[static_cast<std::size_t>(a)];
    if (flow > 0) net->Push(net->ArcSlot(a), flow);
  }
  return Status::OK();
}

void FlowNetworkBuilder::Build(FlowNetwork* net) {
  const auto n = static_cast<std::size_t>(num_nodes_);
  const std::size_t m = to_.size();
  net->num_nodes_ = num_nodes_;
  net->first_out_.assign(n + 1, 0);
  net->head_.resize(2 * m);
  net->residual_.resize(2 * m);
  net->cost_.resize(2 * m);
  net->rev_.resize(2 * m);
  net->arc_slot_.resize(m);

  // Pass 1: out-degree per node (each arc contributes a forward slot at
  // `from` and a reverse slot at `to`).
  for (std::size_t i = 0; i < m; ++i) {
    ++net->first_out_[static_cast<std::size_t>(from_[i]) + 1];
    ++net->first_out_[static_cast<std::size_t>(to_[i]) + 1];
  }
  for (std::size_t v = 1; v <= n; ++v) {
    net->first_out_[v] += net->first_out_[v - 1];
  }

  // Pass 2: scatter the paired slots.
  cursor_.assign(net->first_out_.begin(), net->first_out_.end() - 1);
  for (std::size_t i = 0; i < m; ++i) {
    const ArcIndex sf = cursor_[static_cast<std::size_t>(from_[i])]++;
    const ArcIndex sr = cursor_[static_cast<std::size_t>(to_[i])]++;
    const auto f = static_cast<std::size_t>(sf);
    const auto r = static_cast<std::size_t>(sr);
    net->head_[f] = to_[i];
    net->residual_[f] = cap_[i];
    net->cost_[f] = cost_[i];
    net->rev_[f] = sr;
    net->head_[r] = from_[i];
    net->residual_[r] = 0;
    net->cost_[r] = -cost_[i];
    net->rev_[r] = sf;
    net->arc_slot_[i] = sf;
  }
}

}  // namespace flow
}  // namespace ltc
