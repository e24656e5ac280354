// Road-network tests: Dijkstra cross-checked against brute-force
// Bellman-Ford on random graphs, the resumable NodeDistance search (and its
// bounded form) bit-identical to full solves, snap determinism and the snap
// memo, the bounded EligibleWithin against the base query, the
// "ltc-road v1" round-trip and its malformed-input rejections, the
// Metric-contract validation in Build, and the gen/road street-grid
// synthesizer.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/random.h"
#include "gen/road.h"
#include "geo/grid_index.h"
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

/// A graph for the metric-level tests: a jittered street grid or, on odd
/// draws, a sparse random graph that may be disconnected.
RoadGraph MakeTestGraph(Rng* rng) {
  if (rng->UniformInt(0, 1) == 0) {
    gen::RoadConfig cfg;
    cfg.rows = static_cast<std::int32_t>(rng->UniformInt(2, 14));
    cfg.cols = static_cast<std::int32_t>(rng->UniformInt(2, 14));
    cfg.world_side = 100.0;
    cfg.seed = static_cast<std::uint64_t>(rng->UniformInt(1, 1000));
    auto built = gen::GenerateGridRoadGraph(cfg);
    EXPECT_TRUE(built.ok()) << built.status().ToString();
    return std::move(built).value();
  }
  RandomGraph g = MakeRandomGraph(rng, 40, 60);
  auto built = RoadGraph::Build(g.nodes, g.edges);
  EXPECT_TRUE(built.ok()) << built.status().ToString();
  return std::move(built).value();
}

/// NodeDistance with a fresh workspace and an unmemoized snap: the road
/// distance recomputed from scratch.
double UncachedDistance(const RoadGraph& graph, const Point& a,
                        const Point& b) {
  const std::int32_t u = graph.Snap(a);
  const std::int32_t v = graph.Snap(b);
  const double approach = Distance(a, graph.node(u));
  const double depart = Distance(graph.node(v), b);
  if (u == v) return approach + depart;
  RoadGraph::Workspace fresh;
  return approach + graph.NodeDistance(u, v, &fresh) + depart;
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

TEST(RoadGraphTest, NodeDistanceWithinIsExactInsideTheBound) {
  // Within the bound the bounded search answers exactly what NodeDistance
  // does; past it, kUnreachable (or the exact value when the paused search
  // had already settled v). Bounds sit on, just below and just above the
  // true distance, and at 0, below 0 and +inf.
  Rng rng(41);
  for (int trial = 0; trial < 10; ++trial) {
    const auto num_nodes = static_cast<std::int32_t>(rng.UniformInt(2, 60));
    const auto num_edges =
        static_cast<std::int32_t>(rng.UniformInt(1, 3 * num_nodes));
    RandomGraph g = MakeRandomGraph(&rng, num_nodes, num_edges);
    auto built = RoadGraph::Build(g.nodes, g.edges);
    ASSERT_TRUE(built.ok()) << built.status().ToString();
    const RoadGraph& graph = built.value();
    RoadGraph::Workspace ws;
    std::int32_t u = 0;
    for (int q = 0; q < 400; ++q) {
      if (rng.Uniform(0.0, 1.0) < 0.3) {
        u = static_cast<std::int32_t>(rng.UniformInt(0, num_nodes - 1));
      }
      const auto v = static_cast<std::int32_t>(rng.UniformInt(0, num_nodes - 1));
      RoadGraph::Workspace fresh;
      const double want = graph.NodeDistance(u, v, &fresh);
      const double inf = std::numeric_limits<double>::infinity();
      const double bounds[] = {want,
                               std::nextafter(want, -inf),
                               std::nextafter(want, inf),
                               rng.Uniform(0.0, 200.0),
                               0.0,
                               -1.0,
                               inf};
      const double bound = bounds[rng.UniformInt(0, 6)];
      const double got = graph.NodeDistanceWithin(u, v, bound, &ws);
      if (want <= bound) {
        EXPECT_EQ(got, want) << "u=" << u << " v=" << v << " bound=" << bound;
      } else {
        EXPECT_TRUE(got == RoadGraph::kUnreachable || got == want)
            << "u=" << u << " v=" << v << " bound=" << bound;
      }
    }
  }
}

TEST(RoadGraphTest, BoundedAndUnboundedQueriesInterleave) {
  // A bounded query pauses the search at a prefix of the full solve's heap
  // operations, so unbounded queries and full solves that resume it from
  // the same source still match ShortestPaths bit for bit.
  Rng rng(43);
  for (int trial = 0; trial < 10; ++trial) {
    gen::RoadConfig cfg;
    cfg.rows = static_cast<std::int32_t>(rng.UniformInt(2, 12));
    cfg.cols = static_cast<std::int32_t>(rng.UniformInt(2, 12));
    cfg.world_side = 100.0;
    cfg.seed = static_cast<std::uint64_t>(trial + 1);
    auto built = gen::GenerateGridRoadGraph(cfg);
    ASSERT_TRUE(built.ok()) << built.status().ToString();
    const RoadGraph& graph = built.value();
    const std::int32_t n = graph.num_nodes();
    const auto source = static_cast<std::int32_t>(rng.UniformInt(0, n - 1));
    RoadGraph::Workspace full;
    graph.ShortestPaths(source, &full);

    RoadGraph::Workspace ws;
    for (int q = 0; q < 200; ++q) {
      const auto v = static_cast<std::int32_t>(rng.UniformInt(0, n - 1));
      const double want = full.dist[static_cast<std::size_t>(v)];
      const double draw = rng.Uniform(0.0, 1.0);
      if (draw < 0.6) {
        const double bound = rng.Uniform(0.0, 150.0);
        const double got = graph.NodeDistanceWithin(source, v, bound, &ws);
        if (want <= bound) {
          EXPECT_EQ(got, want) << "v=" << v;
        }
      } else if (draw < 0.95) {
        EXPECT_EQ(graph.NodeDistance(source, v, &ws), want) << "v=" << v;
      } else {
        graph.ShortestPaths(source, &ws);
        EXPECT_EQ(ws.dist, full.dist);
      }
    }
  }
}

TEST(RoadGraphTest, SnapMemoAnswersLikeSnap) {
  // A 30 x 30 lattice of points: more than the memo has slots, so slots
  // collide and evict, and many colliding points share one coordinate, so
  // a key that ignored either coordinate would answer for the wrong point.
  // Two graphs alternate on one workspace, so the memo is reset between
  // them. Every memoized answer must equal the direct Snap.
  Rng rng(47);
  std::vector<RoadGraph> graphs;
  graphs.push_back(MakeTestGraph(&rng));
  graphs.push_back(MakeTestGraph(&rng));
  std::vector<double> coords;
  for (int i = 0; i < 30; ++i) coords.push_back(rng.Uniform(-20.0, 120.0));
  std::vector<Point> pool;
  for (const double x : coords) {
    for (const double y : coords) pool.push_back({x, y});
  }
  // Equal values with different bit patterns are separate keys.
  pool.push_back({0.0, 0.0});
  pool.push_back({-0.0, 0.0});
  pool.push_back({1e300, -1e300});
  RoadGraph::Workspace ws;
  for (int q = 0; q < 20000; ++q) {
    const RoadGraph& graph =
        graphs[static_cast<std::size_t>(q % 7 == 0 ? 1 : 0)];
    const Point& p = pool[static_cast<std::size_t>(
        rng.UniformInt(0, static_cast<std::int64_t>(pool.size()) - 1))];
    ASSERT_EQ(graph.Snap(p, &ws), graph.Snap(p)) << "q=" << q;
  }
}

TEST(RoadGraphTest, SnapMatchesBruteForceAtHugeCoordinates) {
  // Far outside the graph the snap grid clamps the query to its edge cell,
  // and squared distances may overflow to +inf for every node; the answer
  // is still the brute-force nearest (ties to the smaller id).
  gen::RoadConfig cfg;
  cfg.rows = 6;
  cfg.cols = 7;
  cfg.world_side = 100.0;
  auto built = gen::GenerateGridRoadGraph(cfg);
  ASSERT_TRUE(built.ok()) << built.status().ToString();
  const RoadGraph& graph = built.value();
  const Point queries[] = {{1e300, 50.0},  {-1e300, 50.0}, {50.0, 1e300},
                           {50.0, -1e300}, {1e300, 1e300}, {-1e300, -1e300},
                           {1e20, 50.0},   {-1e20, 3.0},   {250.0, -40.0}};
  for (const Point& p : queries) {
    std::int32_t want = -1;
    double best_d2 = 0.0;
    for (std::int32_t id = 0; id < graph.num_nodes(); ++id) {
      const double d2 = SquaredDistance(graph.node(id), p);
      if (want < 0 || d2 < best_d2) {
        want = id;
        best_d2 = d2;
      }
    }
    EXPECT_EQ(graph.Snap(p), want) << p.x << "," << p.y;
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

/// Ids RoadMetric's bounded EligibleWithin emits, or with `base` the ids
/// of the reference query it overrides, in emission order.
std::vector<std::int64_t> EligibleIds(const RoadMetric& metric,
                                      const GridIndex& grid,
                                      const Point& origin, double radius,
                                      bool base) {
  std::vector<std::int64_t> out;
  const auto visit = [&out](std::int64_t id) { out.push_back(id); };
  if (base) {
    metric.Metric::EligibleWithin(grid, origin, radius, visit);
  } else {
    metric.EligibleWithin(grid, origin, radius, visit);
  }
  return out;
}

TEST(RoadMetricTest, BoundedEligibleWithinMatchesBaseQuery) {
  // The override must emit exactly the base query's ids, in the same
  // order: street grids and disconnected random graphs, static and dynamic
  // grids, radius 0, a radius equal to a candidate's own road distance (the
  // boundary the slack protects), radii past the graph diameter, and
  // origins on nodes, on tasks, off the graph and outside the world.
  Rng rng(53);
  std::int64_t emitted = 0;
  for (int trial = 0; trial < 12; ++trial) {
    RoadMetric metric(std::make_shared<RoadGraph>(MakeTestGraph(&rng)));
    const RoadGraph& graph = metric.graph();
    std::vector<Point> tasks;
    for (int i = 0; i < 120; ++i) {
      tasks.push_back({rng.Uniform(-20.0, 120.0), rng.Uniform(-20.0, 120.0)});
    }
    for (int i = 0; i < 10; ++i) {
      tasks.push_back(graph.node(static_cast<std::int32_t>(
          rng.UniformInt(0, graph.num_nodes() - 1))));
    }
    const double cell = rng.Uniform(2.0, 30.0);
    auto grid = trial % 2 == 0
                    ? GridIndex::Build(tasks, cell)
                    : GridIndex::BuildDynamic(Rect{0.0, 0.0, 100.0, 100.0},
                                              cell);
    ASSERT_TRUE(grid.ok()) << grid.status().ToString();
    if (grid.value().dynamic()) {
      for (std::size_t i = 0; i < tasks.size(); ++i) {
        ASSERT_TRUE(
            grid.value().Insert(static_cast<std::int64_t>(i), tasks[i]).ok());
      }
    }
    for (int q = 0; q < 60; ++q) {
      Point origin{rng.Uniform(0.0, 100.0), rng.Uniform(0.0, 100.0)};
      switch (q % 6) {
        case 1:
          origin = graph.node(static_cast<std::int32_t>(
              rng.UniformInt(0, graph.num_nodes() - 1)));
          break;
        case 2:
          origin = tasks[static_cast<std::size_t>(rng.UniformInt(
              0, static_cast<std::int64_t>(tasks.size()) - 1))];
          break;
        case 3:
          origin = {rng.Uniform(-300.0, -100.0), rng.Uniform(100.0, 400.0)};
          break;
        case 4:
          origin = {q % 12 == 4 ? 1e300 : -1e300, 50.0};
          break;
        default:
          break;
      }
      const Point& target = tasks[static_cast<std::size_t>(rng.UniformInt(
          0, static_cast<std::int64_t>(tasks.size()) - 1))];
      std::vector<double> radii = {0.0, rng.Uniform(0.0, 60.0),
                                   UncachedDistance(graph, origin, target),
                                   1e6};
      // Bounded queries first, in ascending radius, so each one resumes a
      // search no farther settled than its own bound; the base queries
      // (which settle out to every candidate) only run after.
      std::sort(radii.begin(), radii.end());
      std::vector<std::vector<std::int64_t>> bounded;
      for (const double radius : radii) {
        bounded.push_back(EligibleIds(metric, grid.value(), origin, radius,
                                      /*base=*/false));
      }
      for (std::size_t i = 0; i < radii.size(); ++i) {
        const auto base = EligibleIds(metric, grid.value(), origin, radii[i],
                                      /*base=*/true);
        EXPECT_EQ(bounded[i], base)
            << "trial " << trial << " origin " << origin.x << "," << origin.y
            << " radius " << radii[i];
        emitted += static_cast<std::int64_t>(base.size());
      }
    }
  }
  EXPECT_GT(emitted, 1000);  // the comparison is not vacuous
}

TEST(RoadMetricTest, SlackKeepsCandidatesOnTheRadius) {
  // A task exactly on the radius (radius = its own road distance), where
  // radius - approach - depart rounds below the last settled key short of
  // it. Graph: u at the origin's side, then w and v at one spot, joined by
  // a one-ulp edge, with v reachable only through w. Without the slack the
  // bounded search would stop at w and drop the task.
  Rng rng(61);
  for (int attempt = 0; attempt < 100000; ++attempt) {
    const double dw = rng.Uniform(10.0, 50.0);
    const double hop = std::nextafter(dw, 100.0) - dw;
    const Point origin{-rng.Uniform(0.0, 1.0), 0.0};
    const Point task{dw + rng.Uniform(0.0, 1.0), 0.0};
    const double approach = Distance(origin, {0.0, 0.0});
    const double depart = Distance({dw, 0.0}, task);
    const double radius = approach + (dw + hop) + depart;
    if (radius - approach - depart >= dw) continue;  // rounding is harmless

    auto built = RoadGraph::Build({{0.0, 0.0}, {dw, 0.0}, {dw, 0.0}},
                                  {{0, 2, dw}, {2, 1, hop}});
    ASSERT_TRUE(built.ok()) << built.status().ToString();
    RoadMetric metric(std::make_shared<RoadGraph>(std::move(built).value()));
    ASSERT_EQ(UncachedDistance(metric.graph(), origin, task), radius);
    auto grid = GridIndex::Build({task}, 10.0);
    ASSERT_TRUE(grid.ok());
    // The bounded query first: the base query would settle v in this
    // thread's workspace and let the bounded one resume past the cut.
    const std::vector<std::int64_t> want = {0};
    EXPECT_EQ(EligibleIds(metric, grid.value(), origin, radius, false), want);
    EXPECT_EQ(EligibleIds(metric, grid.value(), origin, radius, true), want);
    return;
  }
  FAIL() << "no rounding-sensitive case drawn";
}

TEST(RoadMetricTest, DistanceMatchesUncachedRecompute) {
  // Two metrics over different graphs alternate on this thread's one
  // workspace (search and snap memo both reset on every switch), over more
  // points than memo slots. Each answer equals a from-scratch recompute.
  Rng rng(59);
  const RoadMetric metrics[] = {
      RoadMetric(std::make_shared<RoadGraph>(MakeTestGraph(&rng))),
      RoadMetric(std::make_shared<RoadGraph>(MakeTestGraph(&rng)))};
  std::vector<Point> pool;
  for (std::size_t i = 0; i < 2 * RoadGraph::Workspace::kSnapSlots; ++i) {
    pool.push_back({rng.Uniform(-20.0, 120.0), rng.Uniform(-20.0, 120.0)});
  }
  const auto pick = [&]() -> const Point& {
    return pool[static_cast<std::size_t>(
        rng.UniformInt(0, static_cast<std::int64_t>(pool.size()) - 1))];
  };
  for (int q = 0; q < 3000; ++q) {
    const RoadMetric& metric = metrics[q % 100 < 70 ? 0 : 1];
    const Point& a = pick();
    const Point& b = pick();
    EXPECT_EQ(metric.Distance(a, b), UncachedDistance(metric.graph(), a, b))
        << "q=" << q;
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
