// Road-network travel times behind the geo::Metric interface (DESIGN.md
// §12): a CSR adjacency over plane-embedded nodes, a resumable Dijkstra
// that settles only as far as each distance query needs, and a
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

#include <cstdint>
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

  /// Reusable single-source shortest-path scratch: one paused Dijkstra.
  /// It keeps the search from the last source — tentative distances, the
  /// frontier and the nodes touched so far — so repeated queries from one
  /// origin (the gather pattern: one worker against many tasks) share one
  /// search that settles only as far as the farthest target asked for. A
  /// new source resets only the touched entries.
  ///
  /// dist[v] is final once v is settled; it holds final values for every
  /// node only after ShortestPaths.
  struct Workspace {
    std::vector<double> dist;
    IndexedMinHeap<double> frontier{0};
    std::vector<std::int32_t> touched;  // nodes with a finite dist entry
    std::int32_t source = -1;
    std::uint64_t graph_id = 0;  // invalidates the search across graphs
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

  /// Solves single-source shortest paths from `source` into ws->dist
  /// (kUnreachable where disconnected): the workspace's search from
  /// `source`, started or resumed, run until the frontier is empty.
  void ShortestPaths(std::int32_t source, Workspace* ws) const;

  /// Shortest-path distance u -> v. Starts or resumes the workspace's
  /// search from u and stops once no frontier key is below the tentative
  /// dist[v] (positive weights make it final then). The heap operations are
  /// a prefix of ShortestPaths(u)'s, so the result is bit-identical to it.
  double NodeDistance(std::int32_t u, std::int32_t v, Workspace* ws) const;

  /// Process-unique graph identity (workspace cache invalidation).
  std::uint64_t id() const { return id_; }

 private:
  RoadGraph() = default;

  /// Points the workspace at a search from `source`: keeps it when it
  /// already holds one for this (graph, source), else resets it.
  void StartSearch(std::int32_t source, Workspace* ws) const;

  /// Settles frontier nodes until the frontier is empty or, with
  /// `target` >= 0, until no frontier key is below ws->dist[target].
  void Settle(std::int32_t target, Workspace* ws) const;

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
/// is the inherited Euclidean distance. The Dijkstra workspace lives in
/// thread-local storage keyed by graph id, so concurrent gathers (svc
/// GatherSlot fan-out) are safe and a worker's many Acc evaluations share
/// one search per thread, settled out to the farthest task asked about.
class RoadMetric final : public Metric {
 public:
  explicit RoadMetric(std::shared_ptr<const RoadGraph> graph)
      : graph_(std::move(graph)) {}

  double Distance(const Point& a, const Point& b) const override;
  std::string Name() const override;

  const RoadGraph& graph() const { return *graph_; }

 private:
  RoadGraph::Workspace& LocalWorkspace() const;

  std::shared_ptr<const RoadGraph> graph_;
};

}  // namespace geo
}  // namespace ltc

#endif  // LTC_GEO_ROAD_GRAPH_H_
