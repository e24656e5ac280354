#include "geo/road_graph.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstring>
#include <fstream>
#include <limits>
#include <sstream>
#include <utility>

#include "common/string_util.h"

namespace ltc {
namespace geo {
namespace {

std::uint64_t NextGraphId() {
  static std::atomic<std::uint64_t> counter{1};
  return counter.fetch_add(1, std::memory_order_relaxed);
}

// Weight >= Euclidean length, with a hair of slack for parse/print
// round-trip rounding.
constexpr double kWeightSlack = 1e-9;

}  // namespace

StatusOr<RoadGraph> RoadGraph::Build(std::vector<Point> nodes,
                                     const std::vector<Edge>& edges) {
  if (nodes.empty()) {
    return Status::InvalidArgument("road graph needs at least one node");
  }
  const auto n = static_cast<std::int32_t>(nodes.size());
  for (std::size_t i = 0; i < edges.size(); ++i) {
    const Edge& e = edges[i];
    if (e.u < 0 || e.u >= n || e.v < 0 || e.v >= n) {
      return Status::InvalidArgument("road edge " + std::to_string(i) +
                                     " endpoint out of range");
    }
    if (e.u == e.v) {
      return Status::InvalidArgument("road edge " + std::to_string(i) +
                                     " is a self loop");
    }
    if (!(e.weight > 0.0) || !std::isfinite(e.weight)) {
      return Status::InvalidArgument("road edge " + std::to_string(i) +
                                     " has non-positive weight");
    }
    const double length =
        Distance(nodes[static_cast<std::size_t>(e.u)],
                 nodes[static_cast<std::size_t>(e.v)]);
    if (e.weight + kWeightSlack < length) {
      return Status::InvalidArgument(
          "road edge " + std::to_string(i) +
          " weight below its Euclidean length (metric contract)");
    }
  }

  RoadGraph g;
  g.id_ = NextGraphId();
  g.nodes_ = std::move(nodes);
  g.edges_ = edges;

  // Two-pass CSR, both directions (the flow layer's builder idiom).
  g.offsets_.assign(static_cast<std::size_t>(n) + 1, 0);
  for (const Edge& e : edges) {
    ++g.offsets_[static_cast<std::size_t>(e.u) + 1];
    ++g.offsets_[static_cast<std::size_t>(e.v) + 1];
  }
  for (std::size_t i = 1; i < g.offsets_.size(); ++i) {
    g.offsets_[i] += g.offsets_[i - 1];
  }
  g.targets_.resize(static_cast<std::size_t>(g.offsets_.back()));
  g.weights_.resize(g.targets_.size());
  std::vector<std::int64_t> cursor(g.offsets_.begin(), g.offsets_.end() - 1);
  for (const Edge& e : edges) {
    auto place = [&](std::int32_t from, std::int32_t to) {
      const auto slot =
          static_cast<std::size_t>(cursor[static_cast<std::size_t>(from)]++);
      g.targets_[slot] = to;
      g.weights_[slot] = e.weight;
    };
    place(e.u, e.v);
    place(e.v, e.u);
  }

  // Snap index: a static grid sized so an average cell holds ~1 node.
  double min_x = g.nodes_[0].x, max_x = g.nodes_[0].x;
  double min_y = g.nodes_[0].y, max_y = g.nodes_[0].y;
  for (const Point& p : g.nodes_) {
    min_x = std::min(min_x, p.x);
    max_x = std::max(max_x, p.x);
    min_y = std::min(min_y, p.y);
    max_y = std::max(max_y, p.y);
  }
  const double extent = std::max(max_x - min_x, max_y - min_y);
  const double side =
      std::max(1.0, std::floor(std::sqrt(static_cast<double>(n))));
  const double cell = std::max(extent / side, 1.0);
  LTC_ASSIGN_OR_RETURN(auto snap, GridIndex::Build(g.nodes_, cell));
  g.snap_index_.emplace(std::move(snap));
  return g;
}

std::int32_t RoadGraph::Snap(const Point& p) const {
  return static_cast<std::int32_t>(snap_index_->Nearest(p));
}

std::int32_t RoadGraph::Snap(const Point& p, Workspace* ws) const {
  Attach(ws);
  std::uint64_t x_bits;
  std::uint64_t y_bits;
  std::memcpy(&x_bits, &p.x, sizeof(x_bits));
  std::memcpy(&y_bits, &p.y, sizeof(y_bits));
  // Multiplicative hash of both coordinates; the top bits pick the slot.
  const std::uint64_t h =
      (x_bits * 0x9E3779B97F4A7C15ULL) ^ (y_bits * 0xC2B2AE3D27D4EB4FULL);
  Workspace::SnapEntry& e = ws->snaps[static_cast<std::size_t>(
      (h >> 56) % Workspace::kSnapSlots)];
  if (e.node < 0 || e.x_bits != x_bits || e.y_bits != y_bits) {
    e.x_bits = x_bits;
    e.y_bits = y_bits;
    e.node = Snap(p);
  }
  return e.node;
}

void RoadGraph::Attach(Workspace* ws) const {
  if (ws->graph_id == id_) return;
  const auto n = static_cast<std::size_t>(num_nodes());
  ws->graph_id = id_;
  ws->dist.assign(n, kUnreachable);
  ws->frontier.Reset(n);
  ws->touched.clear();
  ws->source = -1;
  ws->snaps.fill(Workspace::SnapEntry{});
}

void RoadGraph::StartSearch(std::int32_t source, Workspace* ws) const {
  Attach(ws);
  if (ws->source == source) return;
  // New source: undo only what the last search wrote.
  for (const std::int32_t v : ws->touched) {
    ws->dist[static_cast<std::size_t>(v)] = kUnreachable;
  }
  ws->frontier.Clear();
  ws->touched.clear();
  ws->source = source;
  ws->dist[static_cast<std::size_t>(source)] = 0.0;
  ws->touched.push_back(source);
  ws->frontier.PushOrDecrease(source, 0.0);
}

bool RoadGraph::Settle(std::int32_t target, double bound,
                       Workspace* ws) const {
  auto& dist = ws->dist;
  auto& frontier = ws->frontier;
  while (!frontier.empty()) {
    // Every weight is positive, so once the smallest frontier key reaches
    // dist[target], no later pop can lower it; and once it exceeds `bound`,
    // every node still unsettled is farther than `bound`.
    const double key = frontier.PeekMin().first;
    if (target >= 0 && key >= dist[static_cast<std::size_t>(target)]) {
      return true;
    }
    if (key > bound) return false;
    const auto [d, u] = frontier.PopMin();
    const auto begin = static_cast<std::size_t>(
        offsets_[static_cast<std::size_t>(u)]);
    const auto end = static_cast<std::size_t>(
        offsets_[static_cast<std::size_t>(u) + 1]);
    for (std::size_t k = begin; k < end; ++k) {
      const std::int32_t v = targets_[k];
      const double nd = d + weights_[k];
      double& dv = dist[static_cast<std::size_t>(v)];
      if (nd < dv) {
        if (dv == kUnreachable) ws->touched.push_back(v);
        dv = nd;
        frontier.PushOrDecrease(v, nd);
      }
    }
  }
  return true;
}

void RoadGraph::ShortestPaths(std::int32_t source, Workspace* ws) const {
  StartSearch(source, ws);
  Settle(/*target=*/-1, kUnreachable, ws);
}

double RoadGraph::NodeDistance(std::int32_t u, std::int32_t v,
                               Workspace* ws) const {
  StartSearch(u, ws);
  Settle(v, kUnreachable, ws);
  return ws->dist[static_cast<std::size_t>(v)];
}

double RoadGraph::NodeDistanceWithin(std::int32_t u, std::int32_t v,
                                     double bound, Workspace* ws) const {
  StartSearch(u, ws);
  return Settle(v, bound, ws) ? ws->dist[static_cast<std::size_t>(v)]
                              : kUnreachable;
}

std::string RoadGraph::Serialize() const {
  std::ostringstream out;
  out.precision(17);
  out << "# ltc-road v1\n";
  out << "nodes " << num_nodes() << "\n";
  for (const Point& p : nodes_) {
    out << p.x << " " << p.y << "\n";
  }
  out << "edges " << edges_.size() << "\n";
  for (const Edge& e : edges_) {
    out << e.u << " " << e.v << " " << e.weight << "\n";
  }
  return out.str();
}

Status RoadGraph::Save(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return Status::IOError("cannot open " + path + " for writing");
  out << Serialize();
  out.flush();
  if (!out) return Status::IOError("short write to " + path);
  return Status::OK();
}

StatusOr<RoadGraph> RoadGraph::Parse(const std::string& text) {
  std::istringstream in(text);
  std::string token;
  auto next_token = [&](std::string* out) -> bool {
    while (in >> *out) {
      if ((*out)[0] == '#') {
        std::string rest;
        std::getline(in, rest);  // comment runs to end of line
        continue;
      }
      return true;
    }
    return false;
  };
  auto expect_keyword = [&](const char* want) -> Status {
    if (!next_token(&token) || token != want) {
      return Status::InvalidArgument(std::string("ltc-road: expected '") +
                                     want + "'");
    }
    return Status::OK();
  };
  auto next_int = [&](std::int64_t* out) -> bool {
    return next_token(&token) && ParseInt64(token, out);
  };
  auto next_double = [&](double* out) -> bool {
    return next_token(&token) && ParseDouble(token, out);
  };

  LTC_RETURN_IF_ERROR(expect_keyword("nodes"));
  std::int64_t n = 0;
  if (!next_int(&n) || n <= 0 ||
      n > std::numeric_limits<std::int32_t>::max()) {
    return Status::InvalidArgument("ltc-road: bad node count");
  }
  // The counts are untrusted: no reserve from them, so a huge count over
  // short text fails as truncated input instead of exhausting memory.
  std::vector<Point> nodes;
  for (std::int64_t i = 0; i < n; ++i) {
    Point p;
    if (!next_double(&p.x) || !next_double(&p.y)) {
      return Status::InvalidArgument("ltc-road: bad or truncated node list");
    }
    nodes.push_back(p);
  }

  LTC_RETURN_IF_ERROR(expect_keyword("edges"));
  std::int64_t m = 0;
  if (!next_int(&m) || m < 0) {
    return Status::InvalidArgument("ltc-road: bad edge count");
  }
  std::vector<Edge> edges;
  for (std::int64_t i = 0; i < m; ++i) {
    Edge e;
    std::int64_t u = 0, v = 0;
    if (!next_int(&u) || !next_int(&v) || !next_double(&e.weight)) {
      return Status::InvalidArgument("ltc-road: bad or truncated edge list");
    }
    // Range-check before narrowing: 2^32 must not wrap onto node 0.
    if (u < 0 || u >= n || v < 0 || v >= n) {
      return Status::InvalidArgument("ltc-road: edge " + std::to_string(i) +
                                     " endpoint out of range");
    }
    e.u = static_cast<std::int32_t>(u);
    e.v = static_cast<std::int32_t>(v);
    edges.push_back(e);
  }
  if (next_token(&token)) {
    return Status::InvalidArgument("ltc-road: trailing content '" + token +
                                   "'");
  }
  return Build(std::move(nodes), edges);
}

StatusOr<RoadGraph> RoadGraph::Load(const std::string& path) {
  std::ifstream in(path);
  if (!in) return Status::IOError("cannot open road graph " + path);
  std::ostringstream buf;
  buf << in.rdbuf();
  return Parse(buf.str());
}

double RoadMetric::Distance(const Point& a, const Point& b) const {
  RoadGraph::Workspace& ws = LocalWorkspace();
  const std::int32_t u = graph_->Snap(a, &ws);
  const std::int32_t v = graph_->Snap(b, &ws);
  const double approach = geo::Distance(a, graph_->node(u));
  const double depart = geo::Distance(graph_->node(v), b);
  if (u == v) return approach + depart;
  return approach + graph_->NodeDistance(u, v, &ws) + depart;
}

void RoadMetric::EligibleWithin(
    const GridIndex& grid, const Point& origin, double radius,
    const std::function<void(std::int64_t)>& visit) const {
  RoadGraph::Workspace& ws = LocalWorkspace();
  const std::int32_t u = graph_->Snap(origin, &ws);
  const double approach = geo::Distance(origin, graph_->node(u));
  // Whenever the caller-order sum approach + d + depart is <= radius, d can
  // exceed the computed radius - approach - depart only by the few ulps of
  // radius that rounding both expressions costs; the slack covers that with
  // room to spare, so no eligible id is cut. A d it lets through is still
  // judged by the exact sum below.
  const double slack = 1e-9 * (1.0 + radius);
  grid.ForEachInRadius(origin, radius, [&](std::int64_t id) {
    const Point& p = grid.point(id);
    const std::int32_t v = graph_->Snap(p, &ws);
    const double depart = geo::Distance(graph_->node(v), p);
    // Distance(origin, p), summed in the same order.
    double d;
    if (u == v) {
      d = approach + depart;
    } else {
      const double bound = radius - approach - depart + slack;
      d = approach + graph_->NodeDistanceWithin(u, v, bound, &ws) + depart;
    }
    if (d <= radius) visit(id);
  });
}

std::string RoadMetric::Name() const {
  return "road(nodes=" + std::to_string(graph_->num_nodes()) +
         ",edges=" + std::to_string(graph_->num_edges()) + ")";
}

RoadGraph::Workspace& RoadMetric::LocalWorkspace() const {
  // One workspace per thread, shared across RoadMetric instances; the
  // graph-id key inside StartSearch resets it when graphs alternate.
  thread_local RoadGraph::Workspace ws;
  return ws;
}

}  // namespace geo
}  // namespace ltc
