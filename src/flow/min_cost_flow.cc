#include "flow/min_cost_flow.h"

#include <algorithm>
#include <functional>
#include <limits>

#include "common/string_util.h"

namespace ltc {
namespace flow {

namespace {

constexpr std::int64_t kInf = std::numeric_limits<std::int64_t>::max() / 4;
constexpr std::int64_t kNegInf = -kInf;

/// Bottleneck residual along the predecessor path into `sink`.
std::int64_t PathBottleneck(const FlowNetwork& net,
                            const std::vector<ArcIndex>& pred_slot,
                            NodeId source, NodeId sink) {
  std::int64_t bottleneck = kInf;
  NodeId v = sink;
  while (v != source) {
    const ArcIndex s = pred_slot[static_cast<std::size_t>(v)];
    bottleneck = std::min(bottleneck, net.residual(s));
    v = net.tail(s);
  }
  return bottleneck;
}

/// Pushes `amount` along the predecessor path and accumulates its cost.
std::int64_t PushPath(FlowNetwork* net, const std::vector<ArcIndex>& pred_slot,
                      NodeId source, NodeId sink, std::int64_t amount) {
  std::int64_t path_cost = 0;
  NodeId v = sink;
  while (v != source) {
    const ArcIndex s = pred_slot[static_cast<std::size_t>(v)];
    net->Push(s, amount);
    path_cost += net->cost(s);
    v = net->tail(s);
  }
  return path_cost;
}

}  // namespace

void McmfWorkspace::Prepare(NodeId num_nodes) {
  const auto n = static_cast<std::size_t>(num_nodes);
  potential.resize(n);  // existing entries preserved: warm-start duals
  dist.resize(n);
  pred_slot.resize(n);
  finalized.resize(n);
  stamp.resize(n);  // new entries are 0 == never touched
  heap.Reset(n);
}

StatusOr<McmfResult> SspMinCostMaxFlow(FlowNetwork* net, NodeId source,
                                       NodeId sink, const LayeredSeed& seed,
                                       McmfWorkspace* workspace) {
  if (source < 0 || source >= net->num_nodes() || sink < 0 ||
      sink >= net->num_nodes()) {
    return Status::InvalidArgument("SspMinCostMaxFlow: bad source/sink");
  }
  if (source == sink) {
    return Status::InvalidArgument("SspMinCostMaxFlow: source == sink");
  }
  const auto n = static_cast<std::size_t>(net->num_nodes());
  McmfResult result;

  McmfWorkspace local_ws;
  McmfWorkspace& ws = workspace != nullptr ? *workspace : local_ws;
  ws.Prepare(net->num_nodes());
  std::vector<std::int64_t>& potential = ws.potential;

  // Closed-form seed for layered DAGs (source -> left -> right -> sink):
  // pi = 0 on the source and left layer, cost_offset on the right layer and
  // the sink. Every left->right arc then has reduced cost c - cost_offset
  // >= 0, and every zero-cost source->left / right->sink arc has reduced
  // cost 0 — non-negative across the board (DESIGN.md "Hot-path
  // architecture").
  for (std::size_t v = 0; v < n; ++v) {
    const auto node = static_cast<NodeId>(v);
    const bool right = node == sink || node >= seed.right_begin;
    potential[v] = right ? seed.cost_offset : 0;
  }

  std::vector<std::int64_t>& dist = ws.dist;
  std::vector<ArcIndex>& pred_slot = ws.pred_slot;
  std::vector<char>& finalized = ws.finalized;
  IndexedMinHeap<std::int64_t>& heap = ws.heap;

  while (true) {
    // Dijkstra on reduced costs c(a) + pi(tail) - pi(head) >= 0, stopped as
    // soon as the sink is finalised.
    std::fill(dist.begin(), dist.end(), kInf);
    std::fill(pred_slot.begin(), pred_slot.end(), -1);
    std::fill(finalized.begin(), finalized.end(), 0);
    heap.Clear();
    dist[static_cast<std::size_t>(source)] = 0;
    heap.PushOrDecrease(source, 0);
    while (!heap.empty()) {
      const auto [du, u64] = heap.PopMin();
      const NodeId u = static_cast<NodeId>(u64);
      finalized[static_cast<std::size_t>(u)] = 1;
      if (u == sink) break;
      for (ArcIndex s = net->OutBegin(u); s < net->OutEnd(u); ++s) {
        if (net->residual(s) <= 0) continue;
        const NodeId v = net->head(s);
        if (finalized[static_cast<std::size_t>(v)]) continue;
        const std::int64_t reduced = net->cost(s) +
                                     potential[static_cast<std::size_t>(u)] -
                                     potential[static_cast<std::size_t>(v)];
        const std::int64_t nd = du + reduced;
        if (nd < dist[static_cast<std::size_t>(v)]) {
          dist[static_cast<std::size_t>(v)] = nd;
          pred_slot[static_cast<std::size_t>(v)] = s;
          heap.PushOrDecrease(v, nd);
        }
      }
    }
    if (dist[static_cast<std::size_t>(sink)] >= kInf) break;  // saturated

    // Potential update; nodes not finalised before early exit are clamped to
    // the sink distance, which preserves reduced-cost non-negativity.
    const std::int64_t dsink = dist[static_cast<std::size_t>(sink)];
    for (std::size_t v = 0; v < n; ++v) {
      potential[v] += std::min(dist[v], dsink);
    }

    const std::int64_t amount = PathBottleneck(*net, pred_slot, source, sink);
    const std::int64_t path_cost =
        PushPath(net, pred_slot, source, sink, amount);
    result.flow += amount;
    result.cost += amount * path_cost;
    ++result.iterations;
  }
  return result;
}

// ---------------------------------------------------------------------------
// IncrementalMcmf (DESIGN.md §10)
// ---------------------------------------------------------------------------

NodeId IncrementalMcmf::AddLeft(std::int64_t supply) {
  NodeId id;
  if (!free_nodes_.empty()) {
    id = free_nodes_.back();
    free_nodes_.pop_back();
  } else {
    id = num_nodes_++;
    kind_.push_back(kFree);
    supply_.push_back(0);
    used_.push_back(0);
    stuck_.push_back(0);
    pi_pending_.push_back(0);
    deficit_.push_back(0);
    inflow_.push_back(0);
    consumed_.push_back(0);
    arcs_of_left_.emplace_back();
  }
  if (ws_.potential.size() < static_cast<std::size_t>(num_nodes_)) {
    ws_.potential.resize(static_cast<std::size_t>(num_nodes_), 0);
  }
  const auto i = static_cast<std::size_t>(id);
  kind_[i] = kLeft;
  supply_[i] = supply < 0 ? 0 : supply;
  used_[i] = 0;
  stuck_[i] = 0;
  pi_pending_[i] = 1;  // dual price derived from its arcs at the next Solve
  arcs_of_left_[i].clear();
  pending_new_lefts_.push_back(id);
  deltas_since_solve_ = true;
  return id;
}

NodeId IncrementalMcmf::AddRight(std::int64_t deficit) {
  NodeId id;
  if (!free_nodes_.empty()) {
    id = free_nodes_.back();
    free_nodes_.pop_back();
  } else {
    id = num_nodes_++;
    kind_.push_back(kFree);
    supply_.push_back(0);
    used_.push_back(0);
    stuck_.push_back(0);
    pi_pending_.push_back(0);
    deficit_.push_back(0);
    inflow_.push_back(0);
    consumed_.push_back(0);
    arcs_of_left_.emplace_back();
  }
  if (ws_.potential.size() < static_cast<std::size_t>(num_nodes_)) {
    ws_.potential.resize(static_cast<std::size_t>(num_nodes_), 0);
  }
  const auto i = static_cast<std::size_t>(id);
  kind_[i] = kRight;
  deficit_[i] = deficit < 0 ? 0 : deficit;
  inflow_[i] = 0;
  consumed_[i] = 0;
  // Seed at the sink floor: INV-ED holds with equality, and any feasible arc
  // into the node is vetted against this price at AddArc time.
  ws_.potential[i] = pi_ed_;
  deltas_since_solve_ = true;
  return id;
}

StatusOr<ArcId> IncrementalMcmf::AddArc(NodeId left, NodeId right,
                                        std::int64_t capacity,
                                        std::int64_t cost) {
  if (left < 0 || left >= num_nodes_ ||
      kind_[static_cast<std::size_t>(left)] != kLeft) {
    return Status::InvalidArgument("IncrementalMcmf::AddArc: bad left node");
  }
  if (right < 0 || right >= num_nodes_ ||
      kind_[static_cast<std::size_t>(right)] != kRight) {
    return Status::InvalidArgument("IncrementalMcmf::AddArc: bad right node");
  }
  if (capacity < 0) {
    return Status::InvalidArgument("IncrementalMcmf::AddArc: negative capacity");
  }
  ArcId id;
  if (!free_arcs_.empty()) {
    id = free_arcs_.back();
    free_arcs_.pop_back();
  } else {
    id = static_cast<ArcId>(arc_left_.size());
    arc_left_.push_back(0);
    arc_right_.push_back(0);
    arc_cap_.push_back(0);
    arc_cost_.push_back(0);
    arc_alive_.push_back(0);
    net_arc_of_.push_back(-1);
  }
  const auto i = static_cast<std::size_t>(id);
  arc_left_[i] = left;
  arc_right_[i] = right;
  arc_cap_[i] = capacity;
  arc_cost_[i] = cost;
  arc_alive_[i] = 1;
  net_arc_of_[i] = -1;
  arcs_of_left_[static_cast<std::size_t>(left)].push_back(id);
  pending_arcs_.push_back(id);
  // A new arc between *already-priced* nodes can undercut the learned duals
  // (reduced cost < 0), which no local repair fixes — schedule a from-scratch
  // restart. Arcs from a pending left are exempt: its price is derived from
  // exactly these arcs at the next Solve.
  if (!pi_pending_[static_cast<std::size_t>(left)] &&
      cost + ws_.potential[static_cast<std::size_t>(left)] -
              ws_.potential[static_cast<std::size_t>(right)] <
          0) {
    cold_ = true;
  }
  deltas_since_solve_ = true;
  return id;
}

Status IncrementalMcmf::SetDeficit(NodeId right, std::int64_t deficit) {
  if (right < 0 || right >= num_nodes_ ||
      kind_[static_cast<std::size_t>(right)] != kRight) {
    return Status::InvalidArgument(
        "IncrementalMcmf::SetDeficit: bad right node");
  }
  if (deficit < 0) {
    return Status::InvalidArgument("IncrementalMcmf::SetDeficit: negative");
  }
  // Deficit is node state, not an arc: no real-arc residual appears or
  // vanishes, so the stored duals survive any change here. Whether a
  // reopened deficit on a cheaply-priced right still admits a consistent
  // sink price is the solve-start feasibility scan's call.
  const auto i = static_cast<std::size_t>(right);
  deficit_[i] = deficit;
  deltas_since_solve_ = true;
  return Status::OK();
}

Status IncrementalMcmf::RetireLeft(NodeId left) {
  if (left < 0 || left >= num_nodes_ ||
      kind_[static_cast<std::size_t>(left)] != kLeft) {
    return Status::InvalidArgument(
        "IncrementalMcmf::RetireLeft: bad left node");
  }
  const auto i = static_cast<std::size_t>(left);
  for (const ArcId a : arcs_of_left_[i]) {
    FreezeArcFlow(a);
    DropArc(a);
  }
  arcs_of_left_[i].clear();
  kind_[i] = kFree;
  supply_[i] = 0;
  used_[i] = 0;
  stuck_[i] = 0;
  pi_pending_[i] = 0;
  free_nodes_.push_back(left);
  deltas_since_solve_ = true;
  return Status::OK();
}

void IncrementalMcmf::FreezeArcFlow(ArcId arc) {
  const ArcId b = net_arc_of_[static_cast<std::size_t>(arc)];
  if (b < 0) return;
  const std::int64_t flow = net_.Flow(b);
  if (flow <= 0) return;
  net_.Push(net_.ArcSlot(b), -flow);
  used_[static_cast<std::size_t>(arc_left_[static_cast<std::size_t>(arc)])] -=
      flow;
  const auto r =
      static_cast<std::size_t>(arc_right_[static_cast<std::size_t>(arc)]);
  inflow_[r] -= flow;
  consumed_[r] += flow;  // delivered for good; deficit stays satisfied
}

void IncrementalMcmf::DropArc(ArcId arc) {
  const auto i = static_cast<std::size_t>(arc);
  arc_alive_[i] = 0;
  const ArcId b = net_arc_of_[i];
  if (b >= 0) {
    pending_removed_.push_back(b);  // flow is zero by now (frozen)
    net_arc_of_[i] = -1;
  } else {
    pending_arcs_.erase(
        std::find(pending_arcs_.begin(), pending_arcs_.end(), arc));
  }
  free_arcs_.push_back(arc);
}

Status IncrementalMcmf::Materialize() {
  if (!net_built_) {
    builder_.Reset(num_nodes_);
    owner_of_net_arc_.clear();
    for (const ArcId a : pending_arcs_) {
      const auto i = static_cast<std::size_t>(a);
      LTC_ASSIGN_OR_RETURN(
          const ArcId b, builder_.AddArc(arc_left_[i], arc_right_[i],
                                         arc_cap_[i], arc_cost_[i]));
      net_arc_of_[i] = b;
      owner_of_net_arc_.push_back(a);
    }
    builder_.Build(&net_);
    pending_arcs_.clear();
    net_built_ = true;
    return Status::OK();
  }
  if (pending_arcs_.empty() && pending_removed_.empty() &&
      net_.num_nodes() == num_nodes_) {
    return Status::OK();
  }
  while (builder_.num_nodes() < num_nodes_) builder_.AddNode();
  added_scratch_.clear();
  for (const ArcId a : pending_arcs_) {
    const auto i = static_cast<std::size_t>(a);
    added_scratch_.push_back(
        {arc_left_[i], arc_right_[i], arc_cap_[i], arc_cost_[i]});
  }
  LTC_RETURN_IF_ERROR(builder_.ApplyDelta(&net_, added_scratch_,
                                          pending_removed_, &remap_scratch_));
  // Recompose the builder-arc -> our-arc ownership map from the remap, then
  // stamp the appended arcs (ids start at the survivor count, in order).
  const auto new_count = static_cast<std::size_t>(builder_.num_arcs());
  const std::size_t survivors = new_count - added_scratch_.size();
  owner_scratch_.assign(new_count, -1);
  for (std::size_t b = 0; b < remap_scratch_.size(); ++b) {
    const ArcId nb = remap_scratch_[b];
    if (nb < 0) continue;
    const ArcId mine = owner_of_net_arc_[b];
    owner_scratch_[static_cast<std::size_t>(nb)] = mine;
    net_arc_of_[static_cast<std::size_t>(mine)] = nb;
  }
  for (std::size_t k = 0; k < pending_arcs_.size(); ++k) {
    const ArcId mine = pending_arcs_[k];
    const auto b = static_cast<ArcId>(survivors + k);
    net_arc_of_[static_cast<std::size_t>(mine)] = b;
    owner_scratch_[static_cast<std::size_t>(b)] = mine;
  }
  owner_of_net_arc_.swap(owner_scratch_);
  pending_arcs_.clear();
  pending_removed_.clear();
  return Status::OK();
}

void IncrementalMcmf::ColdRestart() {
  net_.ResetFlow();
  std::int64_t min_cost = 0;
  for (std::size_t a = 0; a < arc_alive_.size(); ++a) {
    if (arc_alive_[a]) min_cost = std::min(min_cost, arc_cost_[a]);
  }
  // Closed-form re-seed, same argument as LayeredSeed: pi = 0 on
  // lefts, min arc cost on rights keeps every forward reduced cost >= 0 (no
  // reverse residuals exist after ResetFlow). The sink floor drops to the
  // rights' price, so INV-ED holds with equality.
  pi_ed_ = min_cost;
  for (NodeId v = 0; v < num_nodes_; ++v) {
    const auto i = static_cast<std::size_t>(v);
    if (kind_[i] == kLeft) {
      used_[i] = 0;
      stuck_[i] = 0;
      pi_pending_[i] = 0;
      ws_.potential[i] = 0;
    } else if (kind_[i] == kRight) {
      deficit_[i] += inflow_[i];
      inflow_[i] = 0;
      ws_.potential[i] = min_cost;
    }
  }
}

void IncrementalMcmf::DeriveLeftPotential(NodeId left) {
  const auto i = static_cast<std::size_t>(left);
  // Cheapest feasible price for a flow-free left: pi(l) >= pi(r) - cost over
  // its arcs (forward reduced costs >= 0; no reverse residuals constrain an
  // upper bound). Take exactly that max — any slack above it only makes the
  // feasibility scan's excess-vs-used interval harder to satisfy. Arcless
  // lefts can never augment; price them at 0 so later AddArc checks see a
  // defined value.
  std::int64_t pi = kNegInf;
  for (const ArcId a : arcs_of_left_[i]) {
    const auto k = static_cast<std::size_t>(a);
    pi = std::max(
        pi, ws_.potential[static_cast<std::size_t>(arc_right_[k])] -
                arc_cost_[k]);
  }
  ws_.potential[i] = pi == kNegInf ? 0 : pi;
  pi_pending_[i] = 0;
}

bool IncrementalMcmf::Augment(McmfResult* result) {
  ws_.BeginEpisode();
  const auto touch = [this](NodeId v) {
    if (ws_.Touched(v)) return;
    ws_.Touch(v);
    const auto i = static_cast<std::size_t>(v);
    ws_.dist[i] = kInf;
    ws_.pred_slot[i] = -1;
  };
  // Episode constants for the fused stamp/finalized word (see McmfWorkspace).
  const std::uint32_t ep_touched = ws_.stamp_now;
  const std::uint32_t ep_final = ws_.stamp_now | 1u;
  // Multi-source: conceptually one entry per excess left at dist = -pi(l),
  // exactly the reduced cost of the virtual super-source arc st->l shifted
  // by the (irrelevant) constant pi(st). The seeds live in seed_heap_,
  // persisted across augmentations within a solve, and are materialized into
  // the Dijkstra lazily: only while the cheapest seed undercuts the main
  // heap's minimum. Stored keys can be stale — potentials only decrease, so
  // a stale key is an *underestimate* and the true key is recomputed at pop
  // (reinserted if it no longer wins). Stuck and drained lefts are dropped.
  ws_.heap.Clear();
  materialized_.clear();
  // The virtual sink's tentative distance: best D(t) = dist(t) + red(t->ed)
  // = dist(t) + pi(t) - pi_ed over finalized deficit rights. Thanks to
  // INV-ED (red(t->ed) >= 0), once the queue minimum (seed or main) reaches
  // best_d no unfinalized node can beat it — that pop is exactly the moment
  // the super-sink would leave a real Dijkstra's queue.
  NodeId target = -1;
  std::int64_t best_d = kInf;
  // Install the cheapest still-usable direct arc st -> l -> r -> ed as the
  // initial incumbent (see direct_candidates_ in the header). A finite
  // best_d from the very first pop is what arms the relaxation cutoff and
  // the seed-parking test below; Dijkstra still replaces the incumbent
  // whenever any cheaper (possibly relayed) path exists, because every such
  // path's labels stay strictly under best_d.
  while (direct_cursor_ < direct_candidates_.size()) {
    const ArcIndex s = direct_candidates_[direct_cursor_];
    const std::int64_t c = net_.cost(s);
    const NodeId l = net_.tail(s);
    const NodeId r = net_.head(s);
    const auto li = static_cast<std::size_t>(l);
    const auto ri = static_cast<std::size_t>(r);
    if (net_.residual(s) <= 0 || used_[li] >= supply_[li] ||
        deficit_[ri] <= 0) {
      ++direct_cursor_;
      continue;
    }
    touch(l);
    ws_.dist[li] = -ws_.potential[li];
    ws_.pred_slot[li] = -1;
    ws_.heap.PushOrDecrease(l, ws_.dist[li]);
    touch(r);
    ws_.dist[ri] = c - ws_.potential[ri];
    ws_.pred_slot[ri] = s;
    ws_.heap.PushOrDecrease(r, ws_.dist[ri]);
    target = r;
    best_d = c - pi_ed_;
    break;
  }
  // Re-admit parked seeds the incumbent no longer dominates. Floors are
  // solve-constant, so a seed still parked here (floor >= best_d >= the
  // episode's final best_d) provably cannot be on a better path.
  while (!parked_.empty() && parked_.front().first < best_d) {
    const NodeId l = parked_.front().second;
    std::pop_heap(parked_.begin(), parked_.end(), std::greater<>{});
    parked_.pop_back();
    const auto i = static_cast<std::size_t>(l);
    if (used_[i] >= supply_[i]) continue;
    seed_heap_.push_back({-ws_.potential[i], l});
    std::push_heap(seed_heap_.begin(), seed_heap_.end(), std::greater<>{});
  }
  while (true) {
    // Lazy cleanup of the seed top: discard dead seeds, refresh stale keys.
    std::int64_t seed_key = kInf;
    while (!seed_heap_.empty()) {
      const auto [key, l] = seed_heap_.front();
      const auto i = static_cast<std::size_t>(l);
      if (kind_[i] != kLeft || stuck_[i] || used_[i] >= supply_[i]) {
        std::pop_heap(seed_heap_.begin(), seed_heap_.end(),
                      std::greater<>{});
        seed_heap_.pop_back();
        continue;
      }
      const std::int64_t live = -ws_.potential[i];
      if (key != live) {  // stale (key < live): reinsert with the true key
        std::pop_heap(seed_heap_.begin(), seed_heap_.end(), std::greater<>{});
        seed_heap_.back().first = live;
        std::push_heap(seed_heap_.begin(), seed_heap_.end(),
                       std::greater<>{});
        continue;
      }
      seed_key = key;
      break;
    }
    const std::int64_t main_key =
        ws_.heap.empty() ? kInf : ws_.heap.PeekMin().first;
    const std::int64_t next_key = std::min(seed_key, main_key);
    if (next_key >= kInf) break;                      // both queues exhausted
    if (target >= 0 && next_key >= best_d) break;  // sink pops now: done
    // Relax slot s out of a node whose finalized label is du; base is
    // du + pi(tail). The head's finalized flag is checked before the residual
    // or cost arrays are streamed in: in the plateau regime most heads are
    // already finalized, and skipping on the (L1-resident) stamp/finalized
    // arrays alone keeps the dominant loop off the big CSR arrays.
    const auto relax = [this, ep_touched, ep_final, &best_d](
                           ArcIndex s, std::int64_t base) {
      const NodeId v = net_.head(s);
      const auto vi = static_cast<std::size_t>(v);
      const std::uint32_t sf = ws_.stamp[vi];
      if (sf == ep_final) return;  // the single hottest exit: one load
      if (net_.residual(s) <= 0) return;
      const std::int64_t nd = base + net_.cost(s) - ws_.potential[vi];
      // Labels at or past the incumbent can never better it: a deficit right
      // reached at nd scores D >= nd (INV-ED), and best_d only falls within
      // an episode. Skipping the insert is observably identical — such an
      // entry is never popped and never moves a potential.
      if (nd >= best_d) return;
      if (sf == ep_touched) {
        if (nd < ws_.dist[vi]) {
          ws_.dist[vi] = nd;
          ws_.pred_slot[vi] = s;
          ws_.heap.PushOrDecrease(v, nd);
        }
      } else {
        ws_.Touch(v);
        ws_.dist[vi] = nd;
        ws_.pred_slot[vi] = s;
        ws_.heap.PushOrDecrease(v, nd);
      }
    };
    const auto scan_left = [this, &relax](NodeId u, std::int64_t du) {
      const std::int64_t base =
          du + ws_.potential[static_cast<std::size_t>(u)];
      const ArcIndex end = net_.OutEnd(u);
      for (ArcIndex s = net_.OutBegin(u); s < end; ++s) {
        relax(s, base);
      }
    };
    if (seed_key <= main_key) {
      // Materialize the cheapest seed as a Dijkstra source. <= keeps the
      // cost-free case (seed already relaxed to the same dist via a real
      // path) deterministic: sources win ties, clearing pred_slot. The seed
      // is *not* scanned here: it goes through the main heap so that seeds
      // whose label ends up at or beyond the final best_d are never scanned
      // at all (best_d typically keeps falling after materialization).
      const NodeId l = seed_heap_.front().second;
      std::pop_heap(seed_heap_.begin(), seed_heap_.end(), std::greater<>{});
      seed_heap_.pop_back();
      const auto i = static_cast<std::size_t>(l);
      // Seed parking: every first hop out of this seed costs at least its
      // solve-start floor, so floor >= best_d (which only falls from here to
      // the end of the episode) proves the seed is off every improving path.
      // Park it — the unpark loop re-admits it once best_d grows past the
      // floor in a later episode. (Arcless seeds park forever at kInf.)
      if (seed_floor_[i] >= best_d) {
        parked_.push_back({seed_floor_[i], l});
        std::push_heap(parked_.begin(), parked_.end(), std::greater<>{});
        continue;
      }
      materialized_.push_back(l);
      touch(l);
      if (!ws_.FinalizedNow(l) && seed_key <= ws_.dist[i]) {
        ws_.dist[i] = seed_key;
        ws_.pred_slot[i] = -1;  // it is a source, even if relaxed before
        ws_.heap.PushOrDecrease(l, seed_key);
      }
      continue;
    }
    const auto [du, u64] = ws_.heap.PopMin();
    const NodeId u = static_cast<NodeId>(u64);
    const auto ui = static_cast<std::size_t>(u);
    ws_.Finalize(u);
    if (kind_[ui] == kRight) {
      if (deficit_[ui] > 0) {
        const std::int64_t d = du + ws_.potential[ui] - pi_ed_;
        if (d < best_d) {
          best_d = d;
          target = u;
        }
        // Keep relaxing: this right can still be an intermediate hop of a
        // cheaper path to another deficit.
      }
      // A right's only usable out-residuals are the reverse halves of its
      // flow-carrying arcs: iterate the compact relay list (pruning slots
      // whose flow has since been cancelled) instead of the full CSR range
      // over every eligible arc.
      const std::int64_t base = du + ws_.potential[ui];
      auto& slots = flow_slots_of_right_[ui];
      std::size_t w = 0;
      for (const ArcIndex s : slots) {
        if (net_.residual(s) <= 0) {
          slot_in_list_[static_cast<std::size_t>(s)] = 0;
          continue;
        }
        slots[w++] = s;
        relax(s, base);
      }
      slots.resize(w);
    } else {
      scan_left(u, du);
    }
  }
  if (target < 0) return false;

  // Sparse dual update with clamp dT = best_d. Equivalent to the textbook
  // pi[v] += min(dist[v], dT) followed by a uniform -dT shift (a
  // reduced-cost no-op): only touched nodes finalized closer than the sink
  // move; untouched nodes are provably >= dT away (Dijkstra cut) and stay
  // put — the warm path is O(|touched|), not O(num_nodes), per
  // augmentation. The chosen target lands exactly on pi = pi_ed_ and
  // every other finalized deficit right stays >= pi_ed_ (it lost the best_d
  // comparison), so INV-ED survives. pi_ed_ itself is a fixed point: the
  // sink's conceptual dist IS dT.
  for (const NodeId v : ws_.touched) {
    const auto vi = static_cast<std::size_t>(v);
    if (ws_.dist[vi] < best_d) {
      ws_.potential[vi] += ws_.dist[vi] - best_d;
    }
  }

  // Walk the predecessor chain to find this path's seed left, then push the
  // bottleneck, also capped by that left's excess and the target's deficit.
  const auto ti = static_cast<std::size_t>(target);
  NodeId source = target;
  std::int64_t amount = deficit_[ti];
  while (true) {
    const ArcIndex s = ws_.pred_slot[static_cast<std::size_t>(source)];
    if (s < 0) break;
    amount = std::min(amount, net_.residual(s));
    source = net_.tail(s);
  }
  const auto si = static_cast<std::size_t>(source);
  amount = std::min(amount, supply_[si] - used_[si]);
  const std::int64_t path_cost =
      PushPath(&net_, ws_.pred_slot, source, target, amount);
  // Every forward hop into a right just gained flow, opening (or keeping
  // open) its reverse r->l residual: register it in the right's relay list.
  for (NodeId v = target;;) {
    const ArcIndex s = ws_.pred_slot[static_cast<std::size_t>(v)];
    if (s < 0) break;
    if (kind_[static_cast<std::size_t>(v)] == kRight) {
      const ArcIndex rs = net_.rev(s);
      if (!slot_in_list_[static_cast<std::size_t>(rs)]) {
        slot_in_list_[static_cast<std::size_t>(rs)] = 1;
        flow_slots_of_right_[static_cast<std::size_t>(v)].push_back(rs);
      }
    }
    v = net_.tail(s);
  }
  used_[si] += amount;
  deficit_[ti] -= amount;
  inflow_[ti] += amount;
  // Materialized seeds go back into the seed heap with post-update keys if
  // they still hold excess (the source itself may have just drained).
  for (const NodeId l : materialized_) {
    const auto i = static_cast<std::size_t>(l);
    if (used_[i] >= supply_[i]) continue;
    seed_heap_.push_back({-ws_.potential[i], l});
    std::push_heap(seed_heap_.begin(), seed_heap_.end(), std::greater<>{});
  }
  result->flow += amount;
  result->cost += amount * path_cost;
  ++result->iterations;
  return true;
}

StatusOr<McmfResult> IncrementalMcmf::Solve() {
  LTC_RETURN_IF_ERROR(Materialize());
  ws_.Prepare(num_nodes_);
  if (!options_.warm_start) cold_ = true;
  if (!cold_) {
    for (const NodeId l : pending_new_lefts_) {
      const auto i = static_cast<std::size_t>(l);
      if (kind_[i] == kLeft && pi_pending_[i]) DeriveLeftPotential(l);
    }
    // Virtual-arc feasibility scan. The carried-over flow is min-cost for
    // its value iff the full st/ed residual graph admits feasible duals;
    // real arcs are kept feasible by the delta rules, and the four virtual
    // families need a consistent super-source price (excess lefts below it,
    // flow-carrying lefts above it) and super-sink price (inflow rights
    // below it, deficit rights above it). When an interval is empty — e.g.
    // a cheap new left arrived while an expensive one still carries flow,
    // so rerouting could pay — warm-starting would lock in a suboptimal
    // routing; restart instead. Batch pipelines that retire their lefts
    // between solves (McfLtc) have no used lefts and no live inflow at this
    // point, so both intervals are trivially non-empty and they never cool.
    std::int64_t max_excess_pi = kNegInf;
    std::int64_t min_used_pi = kInf;
    std::int64_t max_inflow_pi = kNegInf;
    std::int64_t min_deficit_pi = kInf;
    for (NodeId v = 0; v < num_nodes_; ++v) {
      const auto i = static_cast<std::size_t>(v);
      const std::int64_t pi = ws_.potential[i];
      if (kind_[i] == kLeft) {
        if (used_[i] < supply_[i]) max_excess_pi = std::max(max_excess_pi, pi);
        if (used_[i] > 0) min_used_pi = std::min(min_used_pi, pi);
      } else if (kind_[i] == kRight) {
        if (inflow_[i] > 0) max_inflow_pi = std::max(max_inflow_pi, pi);
        if (deficit_[i] > 0) min_deficit_pi = std::min(min_deficit_pi, pi);
      }
    }
    if (max_excess_pi > min_used_pi || max_inflow_pi > min_deficit_pi) {
      cold_ = true;
    } else if (min_deficit_pi < kInf) {
      // Lowest open-deficit price: makes INV-ED hold by construction, which
      // is what licenses Augment()'s early exit.
      pi_ed_ = min_deficit_pi;
    }
  }
  last_solve_cold_ = cold_;
  if (cold_) ColdRestart();
  pending_new_lefts_.clear();
  // Stuck-left permanence: absent deltas, a left that had no augmenting path
  // still has none (pushing flow elsewhere never creates one). Any delta
  // conservatively re-opens everyone.
  if (last_solve_cold_ || deltas_since_solve_) {
    std::fill(stuck_.begin(), stuck_.end(), 0);
  }
  // Relay lists for this solve: per right, the reverse slots of its
  // flow-carrying arcs (slot ids may have been remapped by Materialize, so
  // the lists are rebuilt from live flow — O(arcs), once per solve).
  if (static_cast<NodeId>(flow_slots_of_right_.size()) < num_nodes_) {
    flow_slots_of_right_.resize(static_cast<std::size_t>(num_nodes_));
  }
  for (NodeId v = 0; v < num_nodes_; ++v) {
    flow_slots_of_right_[static_cast<std::size_t>(v)].clear();
  }
  slot_in_list_.assign(static_cast<std::size_t>(net_.num_slots()), 0);
  for (std::size_t a = 0; a < arc_alive_.size(); ++a) {
    if (!arc_alive_[a]) continue;
    const ArcId b = net_arc_of_[a];
    if (b < 0 || net_.Flow(b) <= 0) continue;
    const ArcIndex rs = net_.rev(net_.ArcSlot(b));
    slot_in_list_[static_cast<std::size_t>(rs)] = 1;
    flow_slots_of_right_[static_cast<std::size_t>(arc_right_[a])].push_back(rs);
  }
  // Seed heap for this solve: every excess non-stuck left at its current
  // key -pi(l). Augment() consumes it lazily across all augmentations.
  // Alongside it, the incumbent cursor (all those lefts' out-slots in static
  // cost order) and each seed's first-hop floor at solve-start prices.
  seed_heap_.clear();
  direct_candidates_.clear();
  direct_cursor_ = 0;
  parked_.clear();
  if (static_cast<NodeId>(seed_floor_.size()) < num_nodes_) {
    seed_floor_.resize(static_cast<std::size_t>(num_nodes_), kInf);
  }
  for (NodeId l = 0; l < num_nodes_; ++l) {
    const auto i = static_cast<std::size_t>(l);
    if (kind_[i] != kLeft || stuck_[i] || used_[i] >= supply_[i]) continue;
    seed_heap_.push_back({-ws_.potential[i], l});
    std::int64_t floor = kInf;
    const ArcIndex end = net_.OutEnd(l);
    for (ArcIndex s = net_.OutBegin(l); s < end; ++s) {
      direct_candidates_.push_back(s);
      floor = std::min(
          floor, net_.cost(s) -
                     ws_.potential[static_cast<std::size_t>(net_.head(s))]);
    }
    seed_floor_[i] = floor;
  }
  std::make_heap(seed_heap_.begin(), seed_heap_.end(), std::greater<>{});
  // Sort by (static cost, slot): deterministic incumbent order, 4 bytes per
  // entry (the cost is re-read through the slot on the rare cursor steps).
  std::sort(direct_candidates_.begin(), direct_candidates_.end(),
            [this](ArcIndex a, ArcIndex b) {
              const std::int64_t ca = net_.cost(a);
              const std::int64_t cb = net_.cost(b);
              return ca != cb ? ca < cb : a < b;
            });
  McmfResult result;
  while (Augment(&result)) {
  }
  // Augment() returning false means no excess left reaches any deficit
  // right; every left still holding excess is therefore stuck, and stays
  // stuck until the next delta (which clears all stuck flags above).
  for (NodeId l = 0; l < num_nodes_; ++l) {
    const auto i = static_cast<std::size_t>(l);
    if (kind_[i] == kLeft && used_[i] < supply_[i]) stuck_[i] = 1;
  }
  cold_ = false;
  deltas_since_solve_ = false;
  ++solves_;
  if (last_solve_cold_) ++cold_solves_;
  if (options_.drift_check_every > 0 &&
      ++solves_since_drift_check_ >= options_.drift_check_every) {
    solves_since_drift_check_ = 0;
    LTC_RETURN_IF_ERROR(RunDriftCheck());
  }
  return result;
}

std::int64_t IncrementalMcmf::ArcFlow(ArcId arc) const {
  if (arc < 0 || arc >= static_cast<ArcId>(arc_alive_.size()) ||
      !arc_alive_[static_cast<std::size_t>(arc)]) {
    return 0;
  }
  const ArcId b = net_arc_of_[static_cast<std::size_t>(arc)];
  return b < 0 ? 0 : net_.Flow(b);
}

std::int64_t IncrementalMcmf::TotalFlow() const {
  std::int64_t flow = 0;
  for (NodeId v = 0; v < num_nodes_; ++v) {
    const auto i = static_cast<std::size_t>(v);
    if (kind_[i] == kLeft) flow += used_[i];
  }
  return flow;
}

std::int64_t IncrementalMcmf::TotalCost() const {
  std::int64_t cost = 0;
  for (std::size_t a = 0; a < arc_alive_.size(); ++a) {
    if (!arc_alive_[a]) continue;
    const ArcId b = net_arc_of_[a];
    if (b < 0) continue;
    cost += arc_cost_[a] * net_.Flow(b);
  }
  return cost;
}

std::int64_t IncrementalMcmf::Excess(NodeId left) const {
  const auto i = static_cast<std::size_t>(left);
  return supply_[i] - used_[i];
}

std::int64_t IncrementalMcmf::Deficit(NodeId right) const {
  return deficit_[static_cast<std::size_t>(right)];
}

std::int64_t IncrementalMcmf::Consumed(NodeId right) const {
  return consumed_[static_cast<std::size_t>(right)];
}

bool IncrementalMcmf::TestOnlyCorruptFlow() {
  for (std::size_t a = 0; a < arc_alive_.size(); ++a) {
    if (!arc_alive_[a] || arc_cost_[a] == 0) continue;
    const ArcId b = net_arc_of_[a];
    if (b < 0) continue;
    const ArcIndex s = net_.ArcSlot(b);
    if (net_.residual(s) <= 0) continue;
    net_.Push(s, 1);  // one unit the bookkeeping knows nothing about
    return true;
  }
  return false;
}

Status IncrementalMcmf::RunDriftCheck() {
  // Independent from-scratch reference: wrap the live problem in the classic
  // st/ed formulation, remapped to layered order (st, lefts, rights, ed) so
  // the closed-form potential seed applies, and compare the invariant pair
  // (flow value, total cost) — per-arc flows may differ between tied optima.
  ref_node_of_.assign(static_cast<std::size_t>(num_nodes_), -1);
  NodeId next = 1;  // 0 is st
  for (NodeId v = 0; v < num_nodes_; ++v) {
    if (kind_[static_cast<std::size_t>(v)] == kLeft) {
      ref_node_of_[static_cast<std::size_t>(v)] = next++;
    }
  }
  const NodeId right_begin = next;
  for (NodeId v = 0; v < num_nodes_; ++v) {
    if (kind_[static_cast<std::size_t>(v)] == kRight) {
      ref_node_of_[static_cast<std::size_t>(v)] = next++;
    }
  }
  const NodeId ed = next;
  ref_builder_.Reset(ed + 1);
  std::int64_t min_cost = 0;
  for (NodeId v = 0; v < num_nodes_; ++v) {
    const auto i = static_cast<std::size_t>(v);
    if (kind_[i] == kLeft && supply_[i] > 0) {
      LTC_RETURN_IF_ERROR(
          ref_builder_.AddArc(0, ref_node_of_[i], supply_[i], 0).status());
    }
  }
  for (std::size_t a = 0; a < arc_alive_.size(); ++a) {
    if (!arc_alive_[a]) continue;
    min_cost = std::min(min_cost, arc_cost_[a]);
    const NodeId left = ref_node_of_[static_cast<std::size_t>(arc_left_[a])];
    const NodeId right = ref_node_of_[static_cast<std::size_t>(arc_right_[a])];
    LTC_RETURN_IF_ERROR(
        ref_builder_.AddArc(left, right, arc_cap_[a], arc_cost_[a]).status());
  }
  for (NodeId v = 0; v < num_nodes_; ++v) {
    const auto i = static_cast<std::size_t>(v);
    const std::int64_t demand = deficit_[i] + inflow_[i];
    if (kind_[i] == kRight && demand > 0) {
      LTC_RETURN_IF_ERROR(
          ref_builder_.AddArc(ref_node_of_[i], ed, demand, 0).status());
    }
  }
  ref_builder_.Build(&ref_net_);
  const LayeredSeed seed{right_begin, min_cost};
  LTC_ASSIGN_OR_RETURN(const McmfResult ref,
                       SspMinCostMaxFlow(&ref_net_, 0, ed, seed, &ref_ws_));
  const std::int64_t flow = TotalFlow();
  const std::int64_t cost = TotalCost();
  if (ref.flow != flow || ref.cost != cost) {
    return Status::Internal(StrFormat(
        "incremental MCF drifted: warm flow %lld cost %lld != from-scratch "
        "flow %lld cost %lld after %lld solves",
        static_cast<long long>(flow), static_cast<long long>(cost),
        static_cast<long long>(ref.flow), static_cast<long long>(ref.cost),
        static_cast<long long>(solves_)));
  }
  return Status::OK();
}

}  // namespace flow
}  // namespace ltc
