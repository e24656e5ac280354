// Road-network travel times behind the geo::Metric interface (DESIGN.md
// §12): a CSR adjacency over plane-embedded nodes, a resumable Dijkstra
// that settles only as far as each distance query needs (or, bounded, only
// as far as an eligibility radius leaves room for), and a memoized
// snap-to-nearest-node bridge for off-graph points.
//
// The CSR layout mirrors the flow layer's (flow/network.h): one offsets
// array, flat target/weight arrays, both directions materialised for the
// undirected graph. Build validates the Metric contract up front — every
// edge weight must be positive and at least the Euclidean length of the
// edge — so path length >= straight-line distance holds by summing the
// triangle inequality along the path, and grid pruning stays a superset
// under RoadMetric (geo/metric.h).
//
// File format "ltc-road v1" (whitespace-separated, '#' comment lines):
//
//   # ltc-road v1
//   nodes <N>
//   <x> <y>          ... N node lines, ids are the line order 0..N-1
//   edges <M>
//   <u> <v> <w>      ... M undirected edges, weight w in grid units
//
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
/// Dijkstra Workspace, one per thread.
class RoadGraph {
 public:
  /// An undirected edge u—v with travel time `weight` (>= the Euclidean
  /// distance between the endpoints; Build rejects violations).
  struct Edge {
    std::int32_t u = 0;
    std::int32_t v = 0;
    double weight = 0.0;
  };

  /// Reusable per-thread query scratch: one paused Dijkstra plus a snap
  /// memo. It keeps the search from the last source — tentative distances,
  /// the frontier and the nodes touched so far — so repeated queries from
  /// one origin (the gather pattern: one worker against many tasks) share
  /// one search that settles only as far as the farthest target asked for.
  /// A new source resets only the touched entries.
  ///
  /// dist[v] is final once v is settled; it holds final values for every
  /// node only after ShortestPaths.
  ///
  /// The snap memo is a direct-mapped cache of Snap answers, keyed by the
  /// point's exact bit pattern (so it returns what Snap(p) would, never an
  /// approximation): a gather snaps each task once to filter it, again in
  /// the eligibility re-check and again in every Acc the scheduler asks
  /// for. A colliding point evicts the slot's previous entry.
  ///
  /// Everything here belongs to the graph named by graph_id; the first
  /// query on another graph resets the search and the memo.
  struct Workspace {
    struct SnapEntry {
      std::uint64_t x_bits = 0;
      std::uint64_t y_bits = 0;
      std::int32_t node = -1;  // -1: empty slot
    };
    static constexpr std::size_t kSnapSlots = 256;  // 6 KB

    std::vector<double> dist;
    IndexedMinHeap<double> frontier{0};
    std::vector<std::int32_t> touched;  // nodes with a finite dist entry
    std::int32_t source = -1;
    std::uint64_t graph_id = 0;  // invalidates the search across graphs
    std::array<SnapEntry, kSnapSlots> snaps{};
  };

  static constexpr double kUnreachable =
      std::numeric_limits<double>::infinity();

  /// Builds the CSR from nodes + undirected edges. Fails on empty node
  /// sets, out-of-range endpoints, self loops, non-positive weights, and
  /// weights below the edge's Euclidean length.
  static StatusOr<RoadGraph> Build(std::vector<Point> nodes,
                                   const std::vector<Edge>& edges);

  /// Parses the "ltc-road v1" text format.
  static StatusOr<RoadGraph> Parse(const std::string& text);

  /// Reads an "ltc-road v1" file.
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

  /// The node nearest to `p` (ties prefer the smaller id — deterministic).
  std::int32_t Snap(const Point& p) const;

  /// Snap(p), answered from the workspace's snap memo when it holds `p`.
  std::int32_t Snap(const Point& p, Workspace* ws) const;

  /// Solves single-source shortest paths from `source` into ws->dist
  /// (kUnreachable where disconnected): the workspace's search from
  /// `source`, started or resumed, run until the frontier is empty.
  void ShortestPaths(std::int32_t source, Workspace* ws) const;

  /// Shortest-path distance u -> v. Starts or resumes the workspace's
  /// search from u and stops once no frontier key is below the tentative
  /// dist[v] (positive weights make it final then). The heap operations are
  /// a prefix of ShortestPaths(u)'s, so the result is bit-identical to it.
  double NodeDistance(std::int32_t u, std::int32_t v, Workspace* ws) const;

  /// NodeDistance(u, v) for a caller that only needs it up to `bound`: the
  /// same resumable search, which also stops once the smallest frontier key
  /// exceeds `bound` (every unsettled node is then farther than `bound`)
  /// and returns kUnreachable. Whenever NodeDistance(u, v) <= bound the
  /// result is bit-identical to it; otherwise it is kUnreachable or, when
  /// the search had already settled v, the exact distance. The heap
  /// operations stay a prefix of ShortestPaths(u)'s, so bounded and
  /// unbounded queries from one source interleave without changing a bit.
  double NodeDistanceWithin(std::int32_t u, std::int32_t v, double bound,
                            Workspace* ws) const;

  /// Process-unique graph identity (workspace cache invalidation).
  std::uint64_t id() const { return id_; }

 private:
  RoadGraph() = default;

  /// Resets the workspace (search and snap memo) unless it already belongs
  /// to this graph.
  void Attach(Workspace* ws) const;

  /// Points the workspace at a search from `source`: keeps it when it
  /// already holds one for this (graph, source), else resets it.
  void StartSearch(std::int32_t source, Workspace* ws) const;

  /// Settles frontier nodes until the frontier is empty or, with
  /// `target` >= 0, until no frontier key is below ws->dist[target]
  /// (returns true), or until the smallest frontier key exceeds `bound`
  /// (returns false: ws->dist[target] is then still tentative).
  bool Settle(std::int32_t target, double bound, Workspace* ws) const;

  std::uint64_t id_ = 0;
  std::vector<Point> nodes_;
  // CSR: neighbours of node u live at targets_/weights_[offsets_[u] ..
  // offsets_[u+1]).
  std::vector<std::int64_t> offsets_;
  std::vector<std::int32_t> targets_;
  std::vector<double> weights_;
  // Kept in Build input order for Serialize round-trips.
  std::vector<Edge> edges_;
  std::optional<GridIndex> snap_index_;  // static index over nodes_
};

/// \brief geo::Metric backed by a RoadGraph: travel time = approach leg to
/// the snapped node, shortest path through the network, and the final leg
/// from the snapped node to the destination.
///
/// Distance(a, b) = ||a - snap(a)|| + d_G(snap(a), snap(b)) + ||snap(b) - b||
///
/// which dominates ||a - b|| by the triangle inequality plus the per-edge
/// weight >= length invariant, satisfying the Metric contract; LowerBound
/// is the inherited Euclidean distance. The Dijkstra workspace (with its
/// snap memo) lives in thread-local storage keyed by graph id, so
/// concurrent gathers (svc GatherSlot fan-out) are safe and a worker's many
/// Acc evaluations share one search per thread, settled out to the
/// farthest task asked about.
class RoadMetric final : public Metric {
 public:
  explicit RoadMetric(std::shared_ptr<const RoadGraph> graph)
      : graph_(std::move(graph)) {}

  double Distance(const Point& a, const Point& b) const override;

  /// Emits exactly the ids Metric::EligibleWithin emits, in the same order,
  /// at the cost of the metric ball instead of the Euclidean superset: the
  /// origin is snapped once, and each candidate's search stops at the
  /// radius left after its approach and depart legs (NodeDistanceWithin),
  /// plus a slack that absorbs the rounding of that subtraction
  /// (DESIGN.md §12).
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
