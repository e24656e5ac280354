// Road-network travel times behind the geo::Metric interface (DESIGN.md
// §12): a CSR adjacency over plane-embedded nodes whose edge weights are
// exact integer ticks, a resumable Dijkstra on int64 keys, a bounded memo
// of reach rows (the nodes near a source with their exact tick distances)
// that answers eligibility from the task side, and a memoized
// snap-to-nearest-node bridge for off-graph points.
//
// The CSR layout mirrors the flow layer's (flow/network.h): one offsets
// array, flat target/weight arrays, both directions materialised for the
// undirected graph. Build validates the Metric contract up front — every
// edge weight must be positive and at least the Euclidean length of the
// edge — and quantizes each weight up to whole ticks of 2^-k units, so
// path length >= straight-line distance still holds by summing the
// triangle inequality along the path, and grid pruning stays a superset
// under RoadMetric (geo/metric.h). Integer path sums do not depend on the
// order they are added in, so d(u, v) == d(v, u) exactly and a search from
// either end gives the same bits.
//
// File format "ltc-road v1" (one record per line, fields separated by one
// space, the header required on line 1; src/io/README.md):
//
//   # ltc-road v1
//   nodes <N>
//   <x> <y>          ... N node lines, ids are the line order 0..N-1
//   edges <M>
//   <u> <v> <w>      ... M undirected edges, weight w in grid units
//
// The ticks are derived from the weights at Build, never stored.
// src/gen/road.h synthesizes grid networks in this format.

#ifndef LTC_GEO_ROAD_GRAPH_H_
#define LTC_GEO_ROAD_GRAPH_H_

#include <array>
#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/heap.h"
#include "common/status.h"
#include "geo/grid_index.h"
#include "geo/metric.h"
#include "geo/point.h"

namespace ltc {
namespace geo {

/// \brief An immutable undirected road network with travel-time weights.
///
/// Thread-compatible: all queries are const; callers own the (mutable)
/// Workspace, one per thread.
class RoadGraph {
 public:
  /// An undirected edge u—v with travel time `weight` (>= the Euclidean
  /// distance between the endpoints; Build rejects violations).
  struct Edge {
    std::int32_t u = 0;
    std::int32_t v = 0;
    double weight = 0.0;
  };

  /// Reusable per-thread query scratch: one paused Dijkstra, a memo of
  /// reach rows with their node index, a snap memo and the last gather's
  /// distances.
  ///
  /// The search keeps its state from the last source — tentative tick
  /// distances, the frontier and the nodes touched so far — so repeated
  /// queries from one source share one search that settles only as far as
  /// the farthest target asked for. A new source resets only the touched
  /// entries. dist[v] is final once v is settled; it holds final values for
  /// every node only after ShortestPaths.
  ///
  /// A reach row holds the nodes one bounded search from its source
  /// settled, with their exact tick distances, in settling order; its
  /// `bound` says every node within that many ticks of the source is in
  /// it. Rows live in kRowSets sets of kRowWays ways, least recently used
  /// evicted first, each with room for kRowCapacity nodes, plus a
  /// kRowIndexSlots-byte open-addressed index from node id to row position:
  /// kRowSets * kRowWays * (kRowCapacity * 12 + kRowIndexSlots) bytes
  /// (384 KB of nodes and ticks, 64 KB of index), allocated when the first
  /// row is built. Every row entry is an exact distance, so which rows are
  /// resident changes how much is searched, never an answer.
  ///
  /// The snap memo is a direct-mapped cache of Snap answers, keyed by the
  /// point's exact bit pattern (so it returns what Snap(p) would, never an
  /// approximation). A colliding point evicts the slot's previous entry. It
  /// has room for every open task of a gather-heavy stream plus the workers
  /// passing through (kSnapSlots * 24 bytes, 96 KB), allocated on the first
  /// memoized snap.
  ///
  /// The gather memo holds the exact Distance(origin, p) of every point p
  /// the last RoadMetric::EligibleWithin emitted, keyed by the graph and by
  /// the origin's and p's bit patterns, so the eligibility re-check and the
  /// scheduler's Acc evaluations of the same pairs reuse them (kGatherSlots
  /// * 24 bytes, 6 KB, open-addressed and at most half full; the emissions
  /// past that are recomputed on demand).
  ///
  /// Everything but the gather memo belongs to the graph named by
  /// graph_id; the first query on another graph resets the search and the
  /// other memos. The gather memo names its own graph.
  struct Workspace {
    struct SnapEntry {
      std::uint64_t x_bits = 0;
      std::uint64_t y_bits = 0;
      std::int32_t node = -1;  // -1: empty slot
    };
    static constexpr int kSnapSlotBits = 12;
    static constexpr std::size_t kSnapSlots = 1u << kSnapSlotBits;

    struct Row {
      std::int32_t source = -1;  // -1: empty way
      std::int32_t size = 0;
      std::int64_t bound = -1;  // every node within `bound` ticks is listed
      std::uint64_t last_use = 0;
    };
    static constexpr std::size_t kRowSets = 32;
    static constexpr std::size_t kRowWays = 8;
    static constexpr std::size_t kRowCapacity = 128;
    // Twice the capacity, so probes stay short; positions fit a byte.
    static constexpr int kRowIndexBits = 8;
    static constexpr std::size_t kRowIndexSlots = 1u << kRowIndexBits;
    static constexpr std::uint8_t kNoPosition = 0xFF;

    struct GatherEntry {
      std::uint64_t x_bits = 0;
      std::uint64_t y_bits = 0;
      double distance = -1.0;  // -1: empty slot
    };
    static constexpr int kGatherSlotBits = 8;
    static constexpr std::size_t kGatherSlots = 1u << kGatherSlotBits;

    std::vector<std::int64_t> dist;  // ticks
    IndexedMinHeap<std::int64_t> frontier{0};
    std::vector<std::int32_t> touched;  // nodes with a finite dist entry
    std::int32_t source = -1;
    std::uint64_t graph_id = 0;  // invalidates everything across graphs
    std::vector<SnapEntry> snaps;         // kSnapSlots once used
    std::vector<Row> rows;                // kRowSets * kRowWays
    std::vector<std::int32_t> row_nodes;  // kRowCapacity per row
    std::vector<std::int64_t> row_ticks;  // parallel to row_nodes
    std::vector<std::uint8_t> row_index;  // kRowIndexSlots per row
    std::uint64_t row_clock = 0;
    // The last gather: its graph (0: none), its origin's bits and the
    // distances it emitted.
    std::uint64_t gather_graph_id = 0;
    std::uint64_t gather_x_bits = 0;
    std::uint64_t gather_y_bits = 0;
    std::vector<GatherEntry> gather;         // kGatherSlots once used
    std::vector<std::uint16_t> gather_used;  // occupied gather slots
  };

  static constexpr double kUnreachable =
      std::numeric_limits<double>::infinity();
  /// The tick distance of a node in another component.
  static constexpr std::int64_t kUnreachableTicks =
      std::numeric_limits<std::int64_t>::max();
  /// Build picks the tick exponent so that the ticks of all edges together
  /// stay below this, so every path length in ticks converts to a double
  /// exactly.
  static constexpr std::int64_t kMaxPathTicks = std::int64_t{1} << 53;

  /// Builds the CSR from nodes + undirected edges. Fails on empty node
  /// sets, out-of-range endpoints, self loops, non-positive weights, and
  /// weights below the edge's Euclidean length.
  static StatusOr<RoadGraph> Build(std::vector<Point> nodes,
                                   const std::vector<Edge>& edges);

  /// Parses the "ltc-road v1" text format with the one line scanner
  /// (common/line_scanner.h).
  static StatusOr<RoadGraph> Parse(const std::string& text);

  /// ReadFile, then Parse.
  static StatusOr<RoadGraph> Load(const std::string& path);

  /// The "ltc-road v1" text for this graph (round-trips through Parse).
  std::string Serialize() const;

  /// Writes Serialize() to `path`.
  Status Save(const std::string& path) const;

  std::int32_t num_nodes() const {
    return static_cast<std::int32_t>(nodes_.size());
  }
  /// Undirected edge count (the CSR stores both directions).
  std::int64_t num_edges() const {
    return static_cast<std::int64_t>(targets_.size() / 2);
  }
  const Point& node(std::int32_t id) const {
    return nodes_[static_cast<std::size_t>(id)];
  }

  /// k, where one tick is 2^-k units: 52 - e for a total edge weight in
  /// [2^e, 2^(e+1)) (at most 1074, the exponent of the smallest subnormal),
  /// lowered while the edges' rounded-up ticks sum to kMaxPathTicks or more.
  int tick_exponent() const { return tick_exponent_; }

  /// `weight` in ticks, rounded up (at least 1): the edge weights the
  /// search runs on, so every edge keeps weight >= Euclidean length.
  std::int64_t ToTicks(double weight) const;

  /// `ticks` in units: ticks * 2^-k, exact below kMaxPathTicks;
  /// kUnreachable for kUnreachableTicks.
  double ToUnits(std::int64_t ticks) const {
    return ticks == kUnreachableTicks
               ? kUnreachable
               : static_cast<double>(ticks) * tick_units_;
  }

  /// The node nearest to `p` (ties prefer the smaller id — deterministic).
  std::int32_t Snap(const Point& p) const;

  /// Snap(p), answered from the workspace's snap memo when it holds `p`.
  std::int32_t Snap(const Point& p, Workspace* ws) const;

  /// Solves single-source shortest paths from `source` into ws->dist, in
  /// ticks (kUnreachableTicks where disconnected): the workspace's search
  /// from `source`, started or resumed, run until the frontier is empty.
  void ShortestPaths(std::int32_t source, Workspace* ws) const;

  /// Shortest-path length u -> v in ticks. Answered from a resident reach
  /// row of u or v that lists the other end; otherwise starts or resumes
  /// the workspace's search from u and stops once no frontier key is below
  /// the tentative dist[v] (positive weights make it final then).
  std::int64_t NodeTicks(std::int32_t u, std::int32_t v, Workspace* ws) const;

  /// ToUnits(NodeTicks(u, v)).
  double NodeDistance(std::int32_t u, std::int32_t v, Workspace* ws) const {
    return ToUnits(NodeTicks(u, v, ws));
  }

  /// NodeTicks(source, v) when it is at most `need` ticks; otherwise some
  /// value above `need`, which is kUnreachableTicks only when v lies in
  /// another component (always then, if `need` >= kMaxPathTicks). Answered
  /// from source's reach row, which is built, or rebuilt to a larger bound,
  /// when it cannot decide; when the row fills kRowCapacity short of
  /// `need`, the workspace's search from v answers instead.
  std::int64_t ReachTicks(std::int32_t source, std::int32_t v,
                          std::int64_t need, Workspace* ws) const;

  /// Process-unique graph identity (workspace cache invalidation).
  std::uint64_t id() const { return id_; }

 private:
  RoadGraph() = default;

  /// Resets the workspace (search and every memo) unless it already
  /// belongs to this graph.
  void Attach(Workspace* ws) const;

  /// Points the workspace at a search from `source`: keeps it when it
  /// already holds one for this (graph, source), else resets it.
  void StartSearch(std::int32_t source, Workspace* ws) const;

  /// Pops the frontier's smallest key, relaxes its edges and returns the
  /// node (now settled).
  std::int64_t SettleNext(Workspace* ws) const;

  /// Settles frontier nodes in key order until the frontier is empty, or,
  /// with `target` >= 0, until no frontier key is below ws->dist[target],
  /// or until the smallest frontier key exceeds `bound`.
  void Settle(std::int32_t target, std::int64_t bound, Workspace* ws) const;

  /// The resident row of `source`, or null.
  Workspace::Row* FindRow(std::int32_t source, Workspace* ws) const;

  /// Fills a row for `source` listing every node within `bound` ticks, or
  /// the kRowCapacity nearest when more are: a fresh search from `source`
  /// cut at the bound or the capacity. Evicts the set's least recently
  /// used row (or replaces `reuse`, the source's stale row, when given).
  Workspace::Row* BuildRow(std::int32_t source, std::int64_t bound,
                           Workspace::Row* reuse, Workspace* ws) const;

  /// Looks `v` up in `row` through the row's node index: its ticks, or -1
  /// when the row does not list it.
  static std::int64_t RowTicks(const Workspace::Row& row, std::int32_t v,
                               const Workspace& ws);

  std::uint64_t id_ = 0;
  int tick_exponent_ = 0;
  // 2^-k: a power of two (subnormal past k = 1022), so ticks * tick_units_
  // is exact for every path length below kMaxPathTicks.
  double tick_units_ = 1.0;
  std::vector<Point> nodes_;
  // CSR: neighbours of node u live at targets_/ticks_[offsets_[u] ..
  // offsets_[u+1]).
  std::vector<std::int64_t> offsets_;
  std::vector<std::int32_t> targets_;
  std::vector<std::int64_t> ticks_;
  // Kept in Build input order for Serialize round-trips.
  std::vector<Edge> edges_;
  std::optional<GridIndex> snap_index_;  // static index over nodes_
};

/// \brief geo::Metric backed by a RoadGraph: travel time = approach leg to
/// the snapped node, shortest path through the network, and the final leg
/// from the snapped node to the destination.
///
/// Distance(a, b) = (||a - snap(a)|| + ||snap(b) - b||) + d_G(snap(a), snap(b))
///
/// which dominates ||a - b|| by the triangle inequality plus the per-edge
/// weight >= length invariant, satisfying the Metric contract; LowerBound
/// is the inherited Euclidean distance. The two legs are added first and
/// d_G is an exact tick count, so Distance(a, b) == Distance(b, a) bit for
/// bit. The workspace (search, reach rows, snap and gather memos) lives in
/// thread-local storage keyed by graph id, so concurrent gathers (svc
/// GatherSlot fan-out) are safe; the distances a gather emits answer the
/// eligibility re-check and the scheduler's Acc evaluations of the same
/// pairs, and a row it built answers the other pairs of the same task.
class RoadMetric final : public Metric {
 public:
  explicit RoadMetric(std::shared_ptr<const RoadGraph> graph)
      : graph_(std::move(graph)) {}

  /// Answered from the gather memo when `a` is the origin of this thread's
  /// last EligibleWithin and that call emitted `b`.
  double Distance(const Point& a, const Point& b) const override;

  /// Emits exactly the ids Metric::EligibleWithin emits, in the same order,
  /// without a search per origin: the origin is snapped once and looked up
  /// in each candidate's reach row (RoadGraph::ReachTicks), bounded by the
  /// radius in whole ticks. A node missing from a row bounded that far is
  /// farther than the radius, so the answer is exact (DESIGN.md §12). The
  /// Distance of each emitted point goes to the gather memo.
  void EligibleWithin(
      const GridIndex& grid, const Point& origin, double radius,
      const std::function<void(std::int64_t)>& visit) const override;

  std::string Name() const override;

  const RoadGraph& graph() const { return *graph_; }

 private:
  RoadGraph::Workspace& LocalWorkspace() const;

  std::shared_ptr<const RoadGraph> graph_;
};

}  // namespace geo
}  // namespace ltc

#endif  // LTC_GEO_ROAD_GRAPH_H_
