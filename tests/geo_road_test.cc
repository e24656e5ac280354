// Road-network tests: Dijkstra cross-checked against brute-force
// Bellman-Ford on random graphs, the resumable NodeDistance search
// bit-identical to full solves, snap determinism, the "ltc-road v1"
// round-trip and its malformed-input rejections, the Metric-contract
// validation in Build, and the gen/road street-grid synthesizer.

#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/random.h"
#include "gen/road.h"
#include "geo/metric.h"
#include "geo/point.h"
#include "geo/road_graph.h"

namespace ltc {
namespace geo {
namespace {

/// Brute-force single-source shortest paths: relax every edge |V|-1 times.
std::vector<double> BellmanFord(std::int32_t num_nodes,
                                const std::vector<RoadGraph::Edge>& edges,
                                std::int32_t source) {
  std::vector<double> dist(static_cast<std::size_t>(num_nodes),
                           RoadGraph::kUnreachable);
  dist[static_cast<std::size_t>(source)] = 0.0;
  for (std::int32_t round = 0; round + 1 < num_nodes; ++round) {
    bool changed = false;
    for (const RoadGraph::Edge& e : edges) {
      const auto u = static_cast<std::size_t>(e.u);
      const auto v = static_cast<std::size_t>(e.v);
      if (dist[u] + e.weight < dist[v]) {
        dist[v] = dist[u] + e.weight;
        changed = true;
      }
      if (dist[v] + e.weight < dist[u]) {
        dist[u] = dist[v] + e.weight;
        changed = true;
      }
    }
    if (!changed) break;
  }
  return dist;
}

/// Random plane-embedded graph whose edge weights respect the Metric
/// contract (weight >= Euclidean edge length). Not necessarily connected.
struct RandomGraph {
  std::vector<Point> nodes;
  std::vector<RoadGraph::Edge> edges;
};

RandomGraph MakeRandomGraph(Rng* rng, std::int32_t num_nodes,
                            std::int32_t num_edges) {
  RandomGraph g;
  for (std::int32_t i = 0; i < num_nodes; ++i) {
    g.nodes.push_back({rng->Uniform(0.0, 100.0), rng->Uniform(0.0, 100.0)});
  }
  for (std::int32_t i = 0; i < num_edges; ++i) {
    RoadGraph::Edge e;
    e.u = static_cast<std::int32_t>(rng->UniformInt(0, num_nodes - 1));
    e.v = static_cast<std::int32_t>(rng->UniformInt(0, num_nodes - 1));
    if (e.u == e.v) continue;
    const double length = Distance(g.nodes[static_cast<std::size_t>(e.u)],
                                   g.nodes[static_cast<std::size_t>(e.v)]);
    e.weight = std::max(length, 1e-6) * (1.0 + rng->Uniform(0.0, 1.0));
    g.edges.push_back(e);
  }
  return g;
}

TEST(RoadGraphTest, DijkstraMatchesBellmanFordOnRandomGraphs) {
  Rng rng(7);
  for (int trial = 0; trial < 20; ++trial) {
    const auto num_nodes =
        static_cast<std::int32_t>(rng.UniformInt(2, 40));
    const auto num_edges =
        static_cast<std::int32_t>(rng.UniformInt(1, 4 * num_nodes));
    RandomGraph g = MakeRandomGraph(&rng, num_nodes, num_edges);
    if (g.edges.empty()) continue;
    auto built = RoadGraph::Build(g.nodes, g.edges);
    ASSERT_TRUE(built.ok()) << built.status().ToString();
    const RoadGraph& graph = built.value();

    RoadGraph::Workspace ws;
    for (std::int32_t s = 0; s < num_nodes; ++s) {
      const std::vector<double> brute =
          BellmanFord(num_nodes, g.edges, s);
      graph.ShortestPaths(s, &ws);
      for (std::int32_t v = 0; v < num_nodes; ++v) {
        const double got = ws.dist[static_cast<std::size_t>(v)];
        const double want = brute[static_cast<std::size_t>(v)];
        if (std::isinf(want)) {
          EXPECT_TRUE(std::isinf(got)) << "s=" << s << " v=" << v;
        } else {
          EXPECT_NEAR(got, want, 1e-9) << "s=" << s << " v=" << v;
        }
      }
    }
  }
}

TEST(RoadGraphTest, LazyNodeDistanceIsBitIdentical) {
  // NodeDistance settles only as far as each target needs and resumes the
  // paused search on the next query from the same source; a new source or
  // graph resets it. Every answer must equal the full solve's bit for bit,
  // including kUnreachable across components, whatever the query order.
  Rng rng(23);
  for (int trial = 0; trial < 10; ++trial) {
    std::vector<RoadGraph> graphs;
    std::vector<std::vector<std::vector<double>>> full;  // [graph][source]
    for (int k = 0; k < 2; ++k) {
      const auto num_nodes =
          static_cast<std::int32_t>(rng.UniformInt(2, 60));
      // Sparse draws leave some graphs disconnected.
      const auto num_edges =
          static_cast<std::int32_t>(rng.UniformInt(1, 3 * num_nodes));
      RandomGraph g = MakeRandomGraph(&rng, num_nodes, num_edges);
      auto built = RoadGraph::Build(g.nodes, g.edges);
      ASSERT_TRUE(built.ok()) << built.status().ToString();
      graphs.push_back(std::move(built).value());
      std::vector<std::vector<double>> solved;
      for (std::int32_t s = 0; s < num_nodes; ++s) {
        RoadGraph::Workspace fresh;
        graphs.back().ShortestPaths(s, &fresh);
        solved.push_back(fresh.dist);
      }
      full.push_back(std::move(solved));
    }

    // One workspace serves both graphs, alternating between them, with
    // sources that repeat (resume) and change (sparse reset) at random.
    RoadGraph::Workspace ws;
    std::int32_t source[2] = {0, 0};
    for (int q = 0; q < 400; ++q) {
      const auto k = static_cast<std::size_t>(rng.UniformInt(0, 1));
      const RoadGraph& graph = graphs[k];
      const std::int32_t n = graph.num_nodes();
      if (source[k] >= n || rng.Uniform(0.0, 1.0) < 0.3) {
        source[k] = static_cast<std::int32_t>(rng.UniformInt(0, n - 1));
      }
      const auto v = static_cast<std::int32_t>(rng.UniformInt(0, n - 1));
      const double got = graph.NodeDistance(source[k], v, &ws);
      const double want = full[k][static_cast<std::size_t>(source[k])]
                              [static_cast<std::size_t>(v)];
      EXPECT_EQ(got, want) << "trial " << trial << " graph " << k << " u="
                           << source[k] << " v=" << v;
      if (q % 50 == 49) {
        // A full solve mid-stream resumes the paused search to exhaustion.
        graph.ShortestPaths(source[k], &ws);
        EXPECT_EQ(ws.dist, full[k][static_cast<std::size_t>(source[k])]);
      }
    }
  }
}

TEST(RoadGraphTest, SnapPrefersSmallerIdOnTies) {
  // Nodes 0 and 1 are equidistant from the query point.
  std::vector<Point> nodes = {{0.0, 0.0}, {2.0, 0.0}, {10.0, 10.0}};
  std::vector<RoadGraph::Edge> edges = {{0, 1, 2.0}, {1, 2, 15.0}};
  auto built = RoadGraph::Build(nodes, edges);
  ASSERT_TRUE(built.ok()) << built.status().ToString();
  EXPECT_EQ(built.value().Snap({1.0, 0.0}), 0);
  EXPECT_EQ(built.value().Snap({9.0, 9.0}), 2);
}

TEST(RoadGraphTest, SerializeParseRoundTrip) {
  Rng rng(3);
  RandomGraph g = MakeRandomGraph(&rng, 20, 50);
  auto built = RoadGraph::Build(g.nodes, g.edges);
  ASSERT_TRUE(built.ok()) << built.status().ToString();
  const std::string text = built.value().Serialize();
  auto reparsed = RoadGraph::Parse(text);
  ASSERT_TRUE(reparsed.ok()) << reparsed.status().ToString();
  EXPECT_EQ(reparsed.value().num_nodes(), built.value().num_nodes());
  EXPECT_EQ(reparsed.value().num_edges(), built.value().num_edges());
  EXPECT_EQ(reparsed.value().Serialize(), text);
}

TEST(RoadGraphTest, BuildRejectsContractViolations) {
  const std::vector<Point> nodes = {{0.0, 0.0}, {3.0, 4.0}};
  // Weight below the 5.0 Euclidean edge length breaks the Metric contract.
  EXPECT_FALSE(RoadGraph::Build(nodes, {{0, 1, 4.0}}).ok());
  // Self loop.
  EXPECT_FALSE(RoadGraph::Build(nodes, {{0, 0, 1.0}}).ok());
  // Endpoint out of range.
  EXPECT_FALSE(RoadGraph::Build(nodes, {{0, 2, 9.0}}).ok());
  // Non-positive weight.
  EXPECT_FALSE(RoadGraph::Build(nodes, {{0, 1, 0.0}}).ok());
  // The conforming edge builds.
  EXPECT_TRUE(RoadGraph::Build(nodes, {{0, 1, 5.0}}).ok());
}

TEST(RoadGraphTest, ParseRejectsMalformedCounts) {
  const std::string header = "# ltc-road v1\nnodes 2\n0 0\n3 4\nedges 1\n";
  ASSERT_TRUE(RoadGraph::Parse(header + "0 1 5\n").ok());
  // An endpoint of 2^32 must not wrap onto node 0 by narrowing.
  auto wrapped = RoadGraph::Parse(header + "4294967296 1 5\n");
  ASSERT_FALSE(wrapped.ok());
  EXPECT_TRUE(wrapped.status().IsInvalidArgument())
      << wrapped.status().ToString();
  EXPECT_FALSE(RoadGraph::Parse(header + "-1 1 5\n").ok());
  // Huge counts over short text fail as truncated input, not bad_alloc.
  auto nodes = RoadGraph::Parse("nodes 100000000000\n0 0\n");
  ASSERT_FALSE(nodes.ok());
  EXPECT_TRUE(nodes.status().IsInvalidArgument()) << nodes.status().ToString();
  auto edges = RoadGraph::Parse(
      "nodes 2\n0 0\n3 4\nedges 100000000000\n0 1 5\n");
  ASSERT_FALSE(edges.ok());
  EXPECT_TRUE(edges.status().IsInvalidArgument()) << edges.status().ToString();
}

TEST(RoadMetricTest, DistanceDominatesEuclidean) {
  Rng rng(19);
  gen::RoadConfig cfg;
  cfg.rows = 12;
  cfg.cols = 12;
  cfg.world_side = 100.0;
  auto built = gen::GenerateGridRoadGraph(cfg);
  ASSERT_TRUE(built.ok()) << built.status().ToString();
  RoadMetric metric(std::make_shared<RoadGraph>(std::move(built).value()));

  for (int trial = 0; trial < 200; ++trial) {
    const Point a{rng.Uniform(0.0, 100.0), rng.Uniform(0.0, 100.0)};
    const Point b{rng.Uniform(0.0, 100.0), rng.Uniform(0.0, 100.0)};
    const double road = metric.Distance(a, b);
    EXPECT_GE(road, Distance(a, b) - 1e-9);
    // The lower bound must never exceed the true distance.
    EXPECT_LE(metric.LowerBound(a, b), road + 1e-9);
    // Symmetric (undirected network).
    EXPECT_NEAR(metric.Distance(b, a), road, 1e-9);
  }
}

TEST(GridRoadGeneratorTest, DeterministicAndConnected) {
  gen::RoadConfig cfg;
  cfg.rows = 8;
  cfg.cols = 9;
  cfg.world_side = 50.0;
  cfg.seed = 42;
  auto first = gen::GenerateGridRoadGraph(cfg);
  auto second = gen::GenerateGridRoadGraph(cfg);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(first.value().Serialize(), second.value().Serialize());
  EXPECT_EQ(first.value().num_nodes(), 72);

  // The lattice keeps everything reachable from node 0.
  RoadGraph::Workspace ws;
  first.value().ShortestPaths(0, &ws);
  for (double d : ws.dist) EXPECT_TRUE(std::isfinite(d));
}

TEST(GridRoadGeneratorTest, RejectsBadConfigs) {
  gen::RoadConfig cfg;
  cfg.rows = 1;
  EXPECT_FALSE(gen::GenerateGridRoadGraph(cfg).ok());
  cfg = gen::RoadConfig{};
  cfg.position_jitter = 0.5;
  EXPECT_FALSE(gen::GenerateGridRoadGraph(cfg).ok());
  cfg = gen::RoadConfig{};
  cfg.congestion = -0.1;
  EXPECT_FALSE(gen::GenerateGridRoadGraph(cfg).ok());
}

}  // namespace
}  // namespace geo
}  // namespace ltc
