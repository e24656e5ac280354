// Min-cost max-flow solvers.
//
// The solver is the Successive Shortest Path Algorithm (SSPA) with node
// potentials — the algorithm the paper names for MCF-LTC ("we apply the
// Successive Shortest Path Algorithm (SSPA) to calculate the minimum cost
// flow ... suitable for large-scale data and many-to-many matching", Sec.
// III). IncrementalMcmf runs it warm across MCF-LTC's batches;
// SspMinCostMaxFlow is the from-scratch form its drift check compares
// against. Both work on layered networks source -> left -> right -> sink,
// whose negative arc costs a closed-form potential seed absorbs (see
// LayeredSeed and DESIGN.md "Hot-path architecture"), so every augmentation
// is one Dijkstra on reduced costs with early exit at the sink.

#ifndef LTC_FLOW_MIN_COST_FLOW_H_
#define LTC_FLOW_MIN_COST_FLOW_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "common/heap.h"
#include "common/status.h"
#include "flow/graph.h"

namespace ltc {
namespace flow {

/// Result of a min-cost max-flow computation.
struct McmfResult {
  /// Total flow pushed from source to sink.
  std::int64_t flow = 0;
  /// Total cost of that flow (sum of arc cost * arc flow).
  std::int64_t cost = 0;
  /// Number of augmenting iterations (diagnostics).
  std::int64_t iterations = 0;
};

/// \brief Reusable scratch memory for the min-cost-flow solvers.
///
/// All buffers are sized on demand by the solver (Prepare) and keep their
/// capacity across solves, so a caller that runs many solves allocates only
/// on the high-water mark.
///
/// The workspace also carries the *cross-solve* warm-start state of the
/// incremental solver: `potential` persists between solves (it holds the
/// learned dual prices), and the stamp machinery below lets each
/// augmentation initialise only the nodes it actually visits instead of
/// O(num_nodes) fills — the dirty-node discipline of DESIGN.md §10.
class McmfWorkspace {
 public:
  McmfWorkspace() = default;

  /// Sizes every buffer for a network of `num_nodes` nodes. Contents are
  /// left unspecified except `potential` and `stamp`, whose existing
  /// entries are preserved (they carry warm-start state).
  void Prepare(NodeId num_nodes);

  /// Opens a sparse-init episode: nodes become untouched until Touch()ed.
  /// The per-node word fuses the episode stamp (upper 31 bits) with this
  /// episode's finalized flag (bit 0), so the Dijkstra inner loop's
  /// "already finalized?" check — the single hottest test in the incremental
  /// solver — is one load and one compare instead of two dependent loads.
  void BeginEpisode() {
    stamp_now += 2;
    if (stamp_now == 0) {  // wrapped: invalidate every stale stamp
      std::fill(stamp.begin(), stamp.end(), 0);
      stamp_now = 2;
    }
    touched.clear();
  }
  bool Touched(NodeId v) const {
    return (stamp[static_cast<std::size_t>(v)] & ~1u) == stamp_now;
  }
  /// Marks `v` touched (and not finalized) this episode.
  void Touch(NodeId v) {
    const auto i = static_cast<std::size_t>(v);
    stamp[i] = stamp_now;
    touched.push_back(v);
  }
  /// Marks a touched `v` finalized this episode.
  void Finalize(NodeId v) { stamp[static_cast<std::size_t>(v)] = stamp_now | 1u; }
  bool FinalizedNow(NodeId v) const {
    return stamp[static_cast<std::size_t>(v)] == (stamp_now | 1u);
  }

  // Solver scratch (treat as opaque outside src/flow).
  std::vector<std::int64_t> potential;
  std::vector<std::int64_t> dist;
  std::vector<ArcIndex> pred_slot;
  std::vector<char> finalized;
  IndexedMinHeap<std::int64_t> heap{0};
  // Sparse-init episode state (incremental solver).
  std::vector<std::uint32_t> stamp;
  std::uint32_t stamp_now = 0;
  std::vector<NodeId> touched;
};

/// \brief Closed-form potential seed for a layered network.
///
/// Declares the network a layered DAG source -> left -> right -> sink in
/// which every negative-cost arc goes from the left layer to the right layer
/// and no arc costs less than `cost_offset` (<= 0). The seed is 0 for the
/// source and left layer and `cost_offset` for the right layer and the sink,
/// which keeps every reduced cost non-negative (proof in DESIGN.md "Hot-path
/// architecture"). A network without negative costs qualifies for any
/// `right_begin` with `cost_offset` = 0. The caller is responsible for the
/// structural guarantee; a violated guarantee yields suboptimal (not
/// invalid) flows.
struct LayeredSeed {
  /// Nodes in [right_begin, num_nodes), and the sink, get `cost_offset`.
  NodeId right_begin = 0;
  /// Lower bound (<= 0) on every arc cost in the network.
  std::int64_t cost_offset = 0;
};

/// \brief Computes a minimum-cost maximum flow from `source` to `sink` using
/// successive shortest paths, with potentials seeded by `seed`.
///
/// The network is mutated in place (residual capacities carry the flow);
/// read per-arc flow with FlowNetwork::Flow. `workspace` is optional
/// reusable scratch; a null workspace means one-off allocations.
StatusOr<McmfResult> SspMinCostMaxFlow(FlowNetwork* net, NodeId source,
                                       NodeId sink, const LayeredSeed& seed,
                                       McmfWorkspace* workspace = nullptr);

/// Options for IncrementalMcmf.
struct IncrementalMcmfOptions {
  /// false: every Solve() rebuilds flow and potentials from scratch before
  /// augmenting (the exact-reference behaviour; useful for A/B runs and
  /// benches). true: state carries over and Solve() only re-solves the
  /// augmenting paths the latest deltas made possible.
  bool warm_start = true;
  /// Every Nth Solve() is cross-checked against an independent from-scratch
  /// SspMinCostMaxFlow over the same live network; a total-cost or
  /// flow-value mismatch makes that Solve() return Status::Internal
  /// ("incremental MCF drifted: ..."), in every build type. 0 disables the
  /// check.
  int drift_check_every = 0;
};

/// \brief Warm-start incremental min-cost max-flow over a bipartite
/// transportation network (DESIGN.md §10).
///
/// Left nodes carry supply (MCF-LTC: a worker's capacity K), right nodes
/// carry deficit (a task's remaining demand); the super-source/sink of the
/// classic formulation are inlined as Dijkstra seeds and a virtual sink
/// potential. Solve() pushes a minimum-cost maximum flow with one early-exit
/// multi-source Dijkstra per augmentation, seeded at every excess left and
/// stopped as soon as the globally cheapest excess-to-deficit path is
/// certain — with node potentials retained across solves, each search stays
/// local to the dirty region instead of re-deriving global prices (the cold
/// solver's per-augmentation near-global searches are what this replaces).
///
/// Deltas (AddLeft/AddRight/AddArc/SetDeficit/RetireLeft) may arrive in any
/// order between solves; the CSR network is patched in place via
/// FlowNetworkBuilder::ApplyDelta at the next Solve(). Deltas that provably
/// preserve real-arc dual feasibility keep the warm state; the one that can
/// break it (a new arc with negative reduced cost between already-priced
/// nodes) degrades that one Solve() to an exact from-scratch restart.
/// Solve() additionally scans the four virtual-arc families (a super-source
/// price must fit between every excess left and every flow-carrying left, a
/// super-sink price between every inflow right and every open-deficit
/// right) — if no such prices exist, the carried flow may be suboptimal for
/// its value and that Solve() also restarts cold.
/// Either way every Solve() returns an exact optimum — warm starts change
/// runtime, never results (tie-equivalent optima aside; cost and flow value
/// are invariant).
///
/// Node and arc ids are recycled after RetireLeft; callers must not hold a
/// retired left's ids across that call. Deterministic: the full state after
/// any call sequence is a function of that sequence alone.
class IncrementalMcmf {
 public:
  explicit IncrementalMcmf(IncrementalMcmfOptions options = {})
      : options_(options) {}

  // --- Deltas (buffered; the CSR is patched at the next Solve) ---

  /// Adds a supply node with `supply` >= 0 units to send.
  NodeId AddLeft(std::int64_t supply);
  /// Adds a demand node wanting `deficit` >= 0 units.
  NodeId AddRight(std::int64_t deficit);
  /// Adds a left->right arc. Capacity >= 0, any cost sign.
  StatusOr<ArcId> AddArc(NodeId left, NodeId right, std::int64_t capacity,
                         std::int64_t cost);
  /// Sets a right's remaining deficit (absolute, not cumulative).
  Status SetDeficit(NodeId right, std::int64_t deficit);
  /// Removes a left and all its arcs. The flow it delivered becomes
  /// permanent consumption at the rights (the MCF-LTC batch handoff:
  /// assignments are committed, the worker leaves). The node id is recycled.
  Status RetireLeft(NodeId left);

  /// Augments to a minimum-cost maximum flow of the live network. The
  /// result holds the flow/cost/iterations of *this* call's pushes (can be
  /// negative-cost on reroutes); totals live in TotalFlow()/TotalCost().
  StatusOr<McmfResult> Solve();

  // --- Inspection (live state; excludes frozen consumption) ---

  std::int64_t ArcFlow(ArcId arc) const;
  std::int64_t TotalFlow() const;
  std::int64_t TotalCost() const;
  std::int64_t Excess(NodeId left) const;
  std::int64_t Deficit(NodeId right) const;
  /// Frozen units delivered to `right` by retired lefts.
  std::int64_t Consumed(NodeId right) const;

  std::int64_t num_solves() const { return solves_; }
  std::int64_t num_cold_solves() const { return cold_solves_; }
  /// True when the most recent Solve() ran the from-scratch restart path.
  bool last_solve_cold() const { return last_solve_cold_; }

  /// Corrupts one unit of live flow behind the bookkeeping's back so the
  /// next drift check fails — the test hook for the drift check's
  /// contract. Returns false, changing nothing, when the network has no
  /// live, materialized, non-zero-cost arc with residual.
  bool TestOnlyCorruptFlow();

 private:
  enum NodeKind : char { kFree = 0, kLeft = 1, kRight = 2 };

  Status Materialize();
  void ColdRestart();
  void DeriveLeftPotential(NodeId left);
  /// One augmentation: a multi-source Dijkstra seeded at every excess left
  /// (dist = -pi(l), which inlines the virtual super-source) that pushes one
  /// bottleneck along the globally cheapest excess-to-deficit path. Returns
  /// false when no deficit is reachable from any excess left.
  bool Augment(McmfResult* result);
  /// Converts `arc`'s live flow into frozen consumption.
  void FreezeArcFlow(ArcId arc);
  void DropArc(ArcId arc);
  /// Compares TotalFlow()/TotalCost() with a from-scratch solve; Internal
  /// on a mismatch.
  Status RunDriftCheck();

  IncrementalMcmfOptions options_;
  FlowNetworkBuilder builder_;
  FlowNetwork net_;
  McmfWorkspace ws_;  // persistent potentials + sparse Dijkstra scratch
  NodeId num_nodes_ = 0;

  // Per node.
  std::vector<char> kind_;
  std::vector<std::int64_t> supply_;    // lefts
  std::vector<std::int64_t> used_;      // lefts: live units sent
  std::vector<char> stuck_;  // lefts: provably cut off from every deficit
  std::vector<char> pi_pending_;        // lefts: potential derived next Solve
  std::vector<std::int64_t> deficit_;   // rights: live units still wanted
  std::vector<std::int64_t> inflow_;    // rights: live units received
  std::vector<std::int64_t> consumed_;  // rights: frozen units
  std::vector<std::vector<ArcId>> arcs_of_left_;
  std::vector<NodeId> free_nodes_;
  std::vector<NodeId> pending_new_lefts_;

  // Cross-augmentation seed heap: (key, left) min-heap (std::greater over
  // pairs, so equal keys break toward the smaller node id) holding every
  // excess left at key -pi(l). Built once per Solve(); Augment() materializes
  // seeds into the Dijkstra lazily, only while the cheapest seed undercuts
  // the main heap. Potentials only decrease within a solve, so stored keys
  // can only be *below* the true -pi(l) — the classic lazy-increase pattern:
  // an outdated top is reinserted with its refreshed key instead of followed.
  std::vector<std::pair<std::int64_t, NodeId>> seed_heap_;
  std::vector<NodeId> materialized_;  // seeds consumed by the current episode

  // Compact relay lists: for each right, the CSR slots leaving it that carry
  // positive residual — i.e. the reverse halves of its flow-carrying arcs.
  // A right's full CSR range is one slot per *eligible* arc but only the few
  // with flow can relay, so Augment() iterates these lists instead of the
  // range. Rebuilt from live flow at each Solve(), extended along every
  // augmenting path, pruned lazily when a slot's residual hits zero
  // (slot_in_list_ keeps entries unique).
  std::vector<std::vector<ArcIndex>> flow_slots_of_right_;
  std::vector<char> slot_in_list_;

  // Incumbent cursor: every out-slot of an excess left, sorted by static arc
  // cost, rebuilt per Solve(). For a *direct* path st -> l -> r -> ed the
  // seed label -pi(l) and the hop's +pi(l) cancel, so its sink metric is
  // cost(s) - pi_ed regardless of the duals — static-cost order IS incumbent
  // order. Each episode advances the cursor past entries no longer usable
  // (saturated slot, drained tail, satisfied head) and installs the first
  // survivor as the episode's initial target, making best_d finite from the
  // first pop. The cursor never backs up: a slot revived later by a reverse
  // push is merely no longer offered, which only weakens the upper bound.
  std::vector<ArcIndex> direct_candidates_;
  std::size_t direct_cursor_ = 0;
  // Per-left first-hop floor for one solve: min over out-slots of
  // cost(s) - pi(head) priced at solve start. The first hop out of a seed
  // costs exactly cost(s) - pi(head) (the seed label cancels pi(l)), and
  // potentials only fall within a solve, so the floor permanently
  // underestimates every path out of that seed. floor >= best_d means the
  // seed cannot better the incumbent: it is parked instead of materialized,
  // skipping its pop and full arc scan. best_d is monotone across
  // augmentations, so parked seeds re-enter (the unpark loop at the top of
  // Augment) only once the incumbent has worsened past their floor.
  std::vector<std::int64_t> seed_floor_;
  std::vector<std::pair<std::int64_t, NodeId>> parked_;  // (floor, left)

  // Per arc (stable ids, recycled through free_arcs_).
  std::vector<NodeId> arc_left_;
  std::vector<NodeId> arc_right_;
  std::vector<std::int64_t> arc_cap_;
  std::vector<std::int64_t> arc_cost_;
  std::vector<char> arc_alive_;
  std::vector<ArcId> net_arc_of_;  // builder/net ArcId; -1 while pending
  std::vector<ArcId> free_arcs_;

  // Deltas since the last Materialize.
  std::vector<ArcId> pending_arcs_;     // my ids awaiting CSR insertion
  std::vector<ArcId> pending_removed_;  // builder ids to drop
  std::vector<ArcId> owner_of_net_arc_;
  std::vector<ArcId> owner_scratch_;
  std::vector<ArcId> remap_scratch_;
  std::vector<FlowNetworkBuilder::ArcSpec> added_scratch_;
  bool net_built_ = false;

  // Virtual super-sink potential, refreshed at every warm Solve() to the
  // minimum price over open-deficit rights. Invariant INV-ED: every live
  // right with deficit > 0 keeps pi >= pi_ed_, which is what makes the
  // Dijkstra early exit sound (an unfinalized right cannot beat the best
  // target found). Holds by construction after the refresh and is preserved
  // by every augmentation (losers of the target race stay at or above the
  // floor; the winner lands exactly on it).
  std::int64_t pi_ed_ = 0;
  bool cold_ = true;  // next Solve must restart from scratch
  bool deltas_since_solve_ = false;
  bool last_solve_cold_ = false;
  std::int64_t solves_ = 0;
  std::int64_t cold_solves_ = 0;
  int solves_since_drift_check_ = 0;

  // Drift-check scratch (independent of the warm state).
  FlowNetworkBuilder ref_builder_;
  FlowNetwork ref_net_;
  McmfWorkspace ref_ws_;
  std::vector<NodeId> ref_node_of_;
};

}  // namespace flow
}  // namespace ltc

#endif  // LTC_FLOW_MIN_COST_FLOW_H_
