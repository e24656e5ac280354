// Road-network tests: Dijkstra cross-checked against brute-force
// Bellman-Ford and an independent integer Dijkstra, the resumable search
// and the reach rows bit-identical to full solves whatever the memo holds,
// the tick quantization's contract at extreme weights, bitwise symmetric
// distances, snap determinism and the snap memo, the row-based
// EligibleWithin against the base query, the "ltc-road v1" round-trip and
// its malformed-input rejections, the Metric-contract validation in Build,
// and the gen/road street-grid synthesizer.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/random.h"
#include "gen/road.h"
#include "geo/grid_index.h"
#include "geo/metric.h"
#include "geo/point.h"
#include "geo/road_graph.h"
#include "oracles/road_paths.h"

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
/// distance recomputed from scratch, legs first as RoadMetric adds them.
double UncachedDistance(const RoadGraph& graph, const Point& a,
                        const Point& b) {
  const std::int32_t u = graph.Snap(a);
  const std::int32_t v = graph.Snap(b);
  const double legs = Distance(a, graph.node(u)) + Distance(graph.node(v), b);
  if (u == v) return legs;
  RoadGraph::Workspace fresh;
  return legs + graph.NodeDistance(u, v, &fresh);
}

/// The graph's edges in ticks, for the integer oracle.
std::vector<TickEdge> TickEdges(const RoadGraph& graph,
                                const std::vector<RoadGraph::Edge>& edges) {
  std::vector<TickEdge> out;
  for (const RoadGraph::Edge& e : edges) {
    out.push_back({e.u, e.v, graph.ToTicks(e.weight)});
  }
  return out;
}

/// A rows x cols lattice over a 500-unit world with congested weights
/// (weight = length x (1 + U[0, 1])): connected, with many paths of nearly
/// equal length.
RandomGraph MakeLattice(Rng* rng, std::int32_t rows, std::int32_t cols) {
  RandomGraph g;
  for (std::int32_t r = 0; r < rows; ++r) {
    for (std::int32_t c = 0; c < cols; ++c) {
      g.nodes.push_back({500.0 * c / (cols - 1) + rng->Uniform(-2.0, 2.0),
                         500.0 * r / (rows - 1) + rng->Uniform(-2.0, 2.0)});
    }
  }
  const auto link = [&](std::int32_t u, std::int32_t v) {
    const double length = Distance(g.nodes[static_cast<std::size_t>(u)],
                                   g.nodes[static_cast<std::size_t>(v)]);
    g.edges.push_back({u, v, length * (1.0 + rng->Uniform(0.0, 1.0))});
  };
  for (std::int32_t r = 0; r < rows; ++r) {
    for (std::int32_t c = 0; c < cols; ++c) {
      if (c + 1 < cols) link(r * cols + c, r * cols + c + 1);
      if (r + 1 < rows) link(r * cols + c, (r + 1) * cols + c);
    }
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
      for (std::int32_t v = 0; v < num_nodes; ++v) {
        const double got = graph.NodeDistance(s, v, &ws);
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

TEST(RoadGraphTest, LazyNodeTicksAreBitIdentical) {
  // NodeTicks settles only as far as each target needs and resumes the
  // paused search on the next query from the same source; a new source or
  // graph resets it. Every answer must equal the integer oracle's bit for
  // bit, including kUnreachableTicks across components, whatever the query
  // order.
  Rng rng(23);
  for (int trial = 0; trial < 10; ++trial) {
    std::vector<RoadGraph> graphs;
    // [graph][source]
    std::vector<std::vector<std::vector<std::int64_t>>> full;
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
      const std::vector<TickEdge> ticks = TickEdges(graphs.back(), g.edges);
      std::vector<std::vector<std::int64_t>> solved;
      for (std::int32_t s = 0; s < num_nodes; ++s) {
        solved.push_back(IntegerDijkstra(num_nodes, ticks, s));
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
      const std::int64_t got = graph.NodeTicks(source[k], v, &ws);
      const std::int64_t want = full[k][static_cast<std::size_t>(source[k])]
                                    [static_cast<std::size_t>(v)];
      EXPECT_EQ(got, want) << "trial " << trial << " graph " << k << " u="
                           << source[k] << " v=" << v;
      if (q % 50 == 49) {
        // Every target mid-stream resumes the paused search to exhaustion.
        const std::vector<std::int64_t>& all =
            full[k][static_cast<std::size_t>(source[k])];
        for (std::int32_t t = 0; t < n; ++t) {
          EXPECT_EQ(graph.NodeTicks(source[k], t, &ws),
                    all[static_cast<std::size_t>(t)]);
        }
      }
    }
  }
}

TEST(RoadGraphTest, NodeTicksMatchIntegerOracle) {
  // Lazy NodeTicks (the path RoadMetric::Distance runs) and NodeDistance
  // against a textbook int64 Dijkstra over the same ticks, then every
  // target from the same source: equal as integers, and NodeDistance is
  // exactly ticks * 2^-k. Sparse random graphs (some disconnected) and
  // congested lattices.
  Rng rng(29);
  for (int trial = 0; trial < 16; ++trial) {
    RandomGraph g =
        trial % 2 == 0
            ? MakeRandomGraph(&rng,
                              static_cast<std::int32_t>(rng.UniformInt(2, 60)),
                              static_cast<std::int32_t>(rng.UniformInt(1, 150)))
            : MakeLattice(&rng, static_cast<std::int32_t>(rng.UniformInt(2, 20)),
                          static_cast<std::int32_t>(rng.UniformInt(2, 20)));
    auto built = RoadGraph::Build(g.nodes, g.edges);
    ASSERT_TRUE(built.ok()) << built.status().ToString();
    const RoadGraph& graph = built.value();
    const std::vector<TickEdge> ticks = TickEdges(graph, g.edges);
    const std::int32_t n = graph.num_nodes();
    RoadGraph::Workspace ws;
    for (int q = 0; q < 40; ++q) {
      const auto s = static_cast<std::int32_t>(rng.UniformInt(0, n - 1));
      const std::vector<std::int64_t> want = IntegerDijkstra(n, ticks, s);
      for (int i = 0; i < 10; ++i) {
        const auto v = static_cast<std::int32_t>(rng.UniformInt(0, n - 1));
        const std::int64_t t = want[static_cast<std::size_t>(v)];
        ASSERT_EQ(graph.NodeTicks(s, v, &ws), t) << "s=" << s << " v=" << v;
        EXPECT_EQ(graph.NodeDistance(s, v, &ws),
                  t == RoadGraph::kUnreachableTicks
                      ? RoadGraph::kUnreachable
                      : std::ldexp(static_cast<double>(t),
                                   -graph.tick_exponent()));
      }
      for (std::int32_t v = 0; v < n; ++v) {
        EXPECT_EQ(graph.NodeTicks(s, v, &ws), want[static_cast<std::size_t>(v)])
            << "s=" << s << " v=" << v;
      }
    }
  }
}

/// Checks ReachTicks' contract for one query: the exact ticks when they
/// are within `need`, otherwise something above it, which is
/// kUnreachableTicks only when disconnected (and always then when `need`
/// is past every path).
void ExpectReachContract(const RoadGraph& graph, std::int32_t source,
                         std::int32_t v, std::int64_t need,
                         RoadGraph::Workspace* ws) {
  RoadGraph::Workspace fresh;
  const std::int64_t want = graph.NodeTicks(source, v, &fresh);
  const std::int64_t got = graph.ReachTicks(source, v, need, ws);
  if (want <= need) {
    EXPECT_EQ(got, want) << "source=" << source << " v=" << v
                         << " need=" << need;
  } else {
    EXPECT_GT(got, need) << "source=" << source << " v=" << v;
    if (got == RoadGraph::kUnreachableTicks ||
        need >= RoadGraph::kMaxPathTicks) {
      EXPECT_EQ(got, want) << "source=" << source << " v=" << v
                           << " need=" << need;
    }
  }
}

TEST(RoadGraphTest, ReachTicksAreExactWithinTheNeed) {
  // Needs on, just below and just above the true distance, and at 0 and
  // past the graph's diameter. Rows get built, rebuilt to larger needs and
  // fill up (kRowCapacity) on the larger graphs, where the answer comes
  // from the fallback search.
  Rng rng(41);
  for (int trial = 0; trial < 10; ++trial) {
    RandomGraph g =
        trial % 2 == 0
            ? MakeRandomGraph(&rng,
                              static_cast<std::int32_t>(rng.UniformInt(2, 60)),
                              static_cast<std::int32_t>(rng.UniformInt(1, 180)))
            : MakeLattice(&rng, 16, 16);
    auto built = RoadGraph::Build(g.nodes, g.edges);
    ASSERT_TRUE(built.ok()) << built.status().ToString();
    const RoadGraph& graph = built.value();
    const std::int32_t n = graph.num_nodes();
    RoadGraph::Workspace ws;
    for (int q = 0; q < 400; ++q) {
      const auto source = static_cast<std::int32_t>(rng.UniformInt(0, n - 1));
      const auto v = static_cast<std::int32_t>(rng.UniformInt(0, n - 1));
      RoadGraph::Workspace fresh;
      const std::int64_t d = graph.NodeTicks(source, v, &fresh);
      const std::int64_t finite = d == RoadGraph::kUnreachableTicks ? 1000 : d;
      const std::int64_t needs[] = {finite,
                                    finite - 1,
                                    finite + 1,
                                    rng.UniformInt(0, 2 * finite),
                                    0,
                                    std::int64_t{1} << 62};
      ExpectReachContract(graph, source, v, needs[rng.UniformInt(0, 5)], &ws);
    }
  }
}

TEST(RoadGraphTest, ReachMemoNeverChangesAnAnswer) {
  // Two graphs alternate on one workspace (each switch resets it) with far
  // more sources than the memo holds rows, so rows are evicted and rebuilt,
  // and paused searches from the same sources resume in between. Every
  // ReachTicks and NodeTicks answer equals a fresh workspace's.
  Rng rng(31);
  std::vector<RoadGraph> graphs;
  for (int k = 0; k < 2; ++k) {
    RandomGraph g = MakeLattice(&rng, 30, 30);
    auto built = RoadGraph::Build(g.nodes, g.edges);
    ASSERT_TRUE(built.ok()) << built.status().ToString();
    graphs.push_back(std::move(built).value());
  }
  RoadGraph::Workspace ws;
  std::int64_t near_answers = 0;
  for (int q = 0; q < 20000; ++q) {
    const RoadGraph& graph = graphs[static_cast<std::size_t>(q % 97 < 80 ? 0 : 1)];
    const std::int32_t n = graph.num_nodes();
    const auto source = static_cast<std::int32_t>(rng.UniformInt(0, n - 1));
    // Mostly nearby targets, as in a gather.
    const auto v = static_cast<std::int32_t>(std::clamp<std::int64_t>(
        source + rng.UniformInt(-2, 2) + 30 * rng.UniformInt(-2, 2), 0,
        n - 1));
    // Radii of about 20-80 units, in ticks.
    const auto need = static_cast<std::int64_t>(
        std::ldexp(rng.Uniform(20.0, 80.0), graph.tick_exponent()));
    RoadGraph::Workspace fresh;
    const std::int64_t want = graph.NodeTicks(source, v, &fresh);
    if (q % 3 == 0) {
      ASSERT_EQ(graph.NodeTicks(v, source, &ws), want) << "q=" << q;
    } else {
      const std::int64_t got = graph.ReachTicks(source, v, need, &ws);
      if (want <= need) {
        ASSERT_EQ(got, want) << "q=" << q;
        ++near_answers;
      } else {
        ASSERT_GT(got, need) << "q=" << q;
      }
    }
  }
  EXPECT_GT(near_answers, 3000);  // the comparison is not vacuous
}

/// The resident row of `source` in `ws`, or null.
const RoadGraph::Workspace::Row* ResidentRow(const RoadGraph::Workspace& ws,
                                             std::int32_t source) {
  for (const RoadGraph::Workspace::Row& row : ws.rows) {
    if (row.source == source) return &row;
  }
  return nullptr;
}

TEST(RoadGraphTest, RowIndexAnswersLikeALinearScan) {
  // After each ReachTicks, every node of the graph, listed in the source's
  // row or not, is looked up again through the row's index with the row's
  // own bound as the need (so nothing is rebuilt or searched): a listed
  // node gives the ticks a linear scan of the row finds, an unlisted one
  // the bound plus one. A lattice and a random graph take turns on one
  // workspace, each for long enough that more sources are asked than rows
  // are resident, so rows are evicted; and needs grow per source, so rows
  // are rebuilt in place.
  Rng rng(67);
  using Workspace = RoadGraph::Workspace;
  std::int64_t evicted = 0;
  std::int64_t rebuilt = 0;
  std::int64_t listed = 0;
  for (int trial = 0; trial < 2; ++trial) {
    std::vector<RoadGraph> graphs;
    for (RandomGraph g :
         {MakeLattice(&rng, 24, 24), MakeRandomGraph(&rng, 400, 900)}) {
      auto built = RoadGraph::Build(g.nodes, g.edges);
      ASSERT_TRUE(built.ok()) << built.status().ToString();
      graphs.push_back(std::move(built).value());
    }
    // Sources asked since the workspace last switched to their graph.
    std::vector<char> asked;
    Workspace ws;
    for (int q = 0; q < 2400; ++q) {
      const auto k = static_cast<std::size_t>((q / 600 + trial) % 2);
      const RoadGraph& graph = graphs[k];
      const std::int32_t n = graph.num_nodes();
      if (q % 600 == 0) asked.assign(static_cast<std::size_t>(n), 0);
      // Half the sources come back (rows grow), the rest spread over the
      // graph (rows are evicted).
      const auto source = static_cast<std::int32_t>(
          rng.UniformInt(0, rng.Uniform(0.0, 1.0) < 0.5 ? 39 : n - 1));
      const Workspace::Row* before = ResidentRow(ws, source);
      if (asked[static_cast<std::size_t>(source)] && before == nullptr) {
        ++evicted;
      }
      asked[static_cast<std::size_t>(source)] = 1;
      if (q % 600 == 0) before = nullptr;  // the switch resets the rows
      // A row that is neither full nor the source's whole component.
      const bool grows =
          before != nullptr &&
          before->size < static_cast<std::int32_t>(Workspace::kRowCapacity) &&
          before->bound != RoadGraph::kUnreachableTicks;
      // A need past the row's bound when it can grow, so it is rebuilt.
      const std::int64_t need =
          grows ? before->bound + 1 + rng.UniformInt(0, before->bound + 1)
                : static_cast<std::int64_t>(std::ldexp(
                      rng.Uniform(5.0, 120.0), graph.tick_exponent()));
      const auto v = static_cast<std::int32_t>(rng.UniformInt(0, n - 1));
      graph.ReachTicks(source, v, need, &ws);
      const Workspace::Row* row = ResidentRow(ws, source);
      ASSERT_NE(row, nullptr) << "q=" << q;
      if (grows && row == before) ++rebuilt;
      // The row as a linear scan sees it.
      const auto base = static_cast<std::size_t>(row - ws.rows.data()) *
                        Workspace::kRowCapacity;
      std::vector<std::int64_t> scanned(static_cast<std::size_t>(n), -1);
      for (std::int32_t i = 0; i < row->size; ++i) {
        const auto at = base + static_cast<std::size_t>(i);
        scanned[static_cast<std::size_t>(ws.row_nodes[at])] = ws.row_ticks[at];
      }
      const std::int64_t bound = row->bound;
      const std::int64_t unlisted = bound == RoadGraph::kUnreachableTicks
                                        ? RoadGraph::kUnreachableTicks
                                        : bound + 1;
      for (std::int32_t x = 0; x < n; ++x) {
        const std::int64_t want = scanned[static_cast<std::size_t>(x)];
        const std::int64_t got = graph.ReachTicks(source, x, bound, &ws);
        ASSERT_EQ(got, want >= 0 ? want : unlisted)
            << "trial " << trial << " q=" << q << " source=" << source
            << " x=" << x;
        if (want >= 0) ++listed;
      }
      ASSERT_EQ(ResidentRow(ws, source), row) << "q=" << q;
    }
  }
  // The comparison is not vacuous, and rows were evicted and rebuilt.
  EXPECT_GT(listed, 10000);
  EXPECT_GT(evicted, 0);
  EXPECT_GT(rebuilt, 0);
}

TEST(RoadGraphTest, TicksKeepTheMetricContract) {
  // Every edge rounds up (weight <= ticks * 2^-k), the edges' ticks sum
  // below 2^53, k is the largest exponent that allows it (or 1074), and a
  // path's length in units is its exact tick count times 2^-k.
  struct Case {
    const char* name;
    std::vector<Point> nodes;
    std::vector<RoadGraph::Edge> edges;
    double path_units;  // exact NodeDistance(0, last node)
  };
  const double two52 = std::ldexp(1.0, 52);
  const std::vector<Case> cases = {
      // Total weight 2^53 - 3 fits at k = 0, exactly.
      {"near 2^53 below",
       {{0.0, 0.0}, {two52, 0.0}, {2 * two52 - 3.0, 0.0}},
       {{0, 1, two52}, {1, 2, two52 - 3.0}},
       2 * two52 - 3.0},
      // Total 2^53 + 2 needs k = -1: ticks 2^51 and 2^51 + 1.
      {"near 2^53 above",
       {{0.0, 0.0}, {two52, 0.0}, {2 * two52 + 2.0, 0.0}},
       {{0, 1, two52}, {1, 2, two52 + 2.0}},
       2 * two52 + 2.0},
      // Node spacing stays small: a 1e300 offset squares to +inf.
      {"1e300",
       {{0.0, 0.0}, {1.0, 0.0}, {2.0, 0.0}},
       {{0, 1, 1e300}, {1, 2, 1.5e300}},
       -1.0},
      {"1e-300",
       {{0.0, 0.0}, {1e-300, 0.0}, {2e-300, 0.0}},
       {{0, 1, 1e-300}, {1, 2, 1.5e-300}},
       -1.0},
      // Subnormal weights are whole multiples of 2^-1074: exact at k = 1074.
      {"subnormal",
       {{0.0, 0.0}, {0.0, 0.0}, {0.0, 0.0}},
       {{0, 1, 1e-320}, {1, 2, 3e-320}},
       1e-320 + 3e-320},
      {"mixed 1e-300 and 1e300",
       {{0.0, 0.0}, {1e-300, 0.0}, {1.0, 0.0}},
       {{0, 1, 1e-300}, {1, 2, 1e300}},
       -1.0},
  };
  for (const Case& c : cases) {
    auto built = RoadGraph::Build(c.nodes, c.edges);
    ASSERT_TRUE(built.ok()) << c.name << ": " << built.status().ToString();
    const RoadGraph& graph = built.value();
    const int k = graph.tick_exponent();
    EXPECT_LE(k, 1074) << c.name;
    std::int64_t total = 0;
    bool wider_fits = k < 1074;
    std::int64_t wider_total = 0;
    for (const RoadGraph::Edge& e : c.edges) {
      const std::int64_t t = graph.ToTicks(e.weight);
      EXPECT_GE(t, 1) << c.name;
      EXPECT_GE(graph.ToUnits(t), e.weight) << c.name;
      EXPECT_GE(graph.ToUnits(t),
                Distance(c.nodes[static_cast<std::size_t>(e.u)],
                         c.nodes[static_cast<std::size_t>(e.v)]))
          << c.name;
      // One tick less would fall below the weight.
      EXPECT_LT(graph.ToUnits(t - 1), e.weight) << c.name;
      total += t;
      wider_total += static_cast<std::int64_t>(
          std::min(std::ceil(std::ldexp(e.weight, k + 1)), 0x1p62));
    }
    EXPECT_LT(total, RoadGraph::kMaxPathTicks) << c.name;
    if (wider_fits) {
      EXPECT_GE(wider_total, RoadGraph::kMaxPathTicks) << c.name << " k=" << k;
    }
    RoadGraph::Workspace ws;
    const std::int32_t last = graph.num_nodes() - 1;
    const std::int64_t path = graph.NodeTicks(0, last, &ws);
    EXPECT_EQ(path, total) << c.name;  // a path graph: the only route
    const double units = graph.NodeDistance(0, last, &ws);
    EXPECT_EQ(units, std::ldexp(static_cast<double>(total), -k)) << c.name;
    EXPECT_GE(units, c.edges[0].weight + c.edges[1].weight) << c.name;
    if (c.path_units >= 0.0) {
      EXPECT_EQ(units, c.path_units) << c.name;
    }
  }
}

TEST(RoadGraphTest, SnapMemoAnswersLikeSnap) {
  // A square lattice of points, about twice as many as the memo has slots,
  // so slots collide and evict, and many colliding points share one
  // coordinate, so a key that ignored either coordinate would answer for
  // the wrong point. Two graphs take turns on one workspace, so the memo is
  // reset between them. Every memoized answer must equal the direct Snap.
  Rng rng(47);
  std::vector<RoadGraph> graphs;
  graphs.push_back(MakeTestGraph(&rng));
  graphs.push_back(MakeTestGraph(&rng));
  const auto side = static_cast<int>(
      std::sqrt(2.0 * static_cast<double>(RoadGraph::Workspace::kSnapSlots)));
  std::vector<double> coords;
  for (int i = 0; i < side; ++i) coords.push_back(rng.Uniform(-20.0, 120.0));
  std::vector<Point> pool;
  for (const double x : coords) {
    for (const double y : coords) pool.push_back({x, y});
  }
  // Equal values with different bit patterns are separate keys.
  pool.push_back({0.0, 0.0});
  pool.push_back({-0.0, 0.0});
  pool.push_back({1e300, -1e300});
  ASSERT_GT(pool.size(), RoadGraph::Workspace::kSnapSlots);
  RoadGraph::Workspace ws;
  for (int q = 0; q < 40000; ++q) {
    const RoadGraph& graph = graphs[static_cast<std::size_t>((q / 5000) % 2)];
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
  auto nodes = RoadGraph::Parse("# ltc-road v1\nnodes 100000000000\n0 0\n");
  ASSERT_FALSE(nodes.ok());
  EXPECT_TRUE(nodes.status().IsInvalidArgument()) << nodes.status().ToString();
  auto edges = RoadGraph::Parse(
      "# ltc-road v1\nnodes 2\n0 0\n3 4\nedges 100000000000\n0 1 5\n");
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
    // Symmetric (undirected network), bit for bit.
    EXPECT_EQ(metric.Distance(b, a), road);
  }
}

TEST(RoadMetricTest, DistanceIsSymmetric) {
  // Bitwise, on the serving benchmark's street grid (48 x 48 over a
  // 500-unit world), for off-graph points and for the nodes themselves.
  // Float path sums made 13,562 of these 20,000 pairs differ.
  Rng rng(71);
  gen::RoadConfig cfg;
  cfg.rows = 48;
  cfg.cols = 48;
  cfg.world_side = 500.0;
  auto built = gen::GenerateGridRoadGraph(cfg);
  ASSERT_TRUE(built.ok()) << built.status().ToString();
  RoadMetric metric(std::make_shared<RoadGraph>(std::move(built).value()));
  const RoadGraph& graph = metric.graph();
  std::int64_t asymmetric = 0;
  for (int q = 0; q < 20000; ++q) {
    Point a{rng.Uniform(0.0, 500.0), rng.Uniform(0.0, 500.0)};
    Point b{rng.Uniform(0.0, 500.0), rng.Uniform(0.0, 500.0)};
    if (q % 2 == 1) {
      a = graph.node(static_cast<std::int32_t>(
          rng.UniformInt(0, graph.num_nodes() - 1)));
      b = graph.node(static_cast<std::int32_t>(
          rng.UniformInt(0, graph.num_nodes() - 1)));
    }
    if (metric.Distance(a, b) != metric.Distance(b, a)) ++asymmetric;
  }
  EXPECT_EQ(asymmetric, 0);
}

/// Ids RoadMetric's row-based EligibleWithin emits, or with `base` the ids
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
  // grids, radius 0, a radius equal to a candidate's own road distance (and
  // one ulp either side of it), radii past the graph diameter, and origins
  // on nodes, on tasks, off the graph and outside the world.
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
      const double on = UncachedDistance(graph, origin, target);
      const double inf = std::numeric_limits<double>::infinity();
      const double radii[] = {0.0,
                              rng.Uniform(0.0, 60.0),
                              on,
                              std::nextafter(on, 0.0),
                              std::nextafter(on, inf),
                              1e6};
      // Rows answer the same whatever was asked before, so the two queries
      // run in either order.
      for (std::size_t i = 0; i < std::size(radii); ++i) {
        const bool row_first = (q + static_cast<int>(i)) % 2 == 0;
        const auto first = EligibleIds(metric, grid.value(), origin, radii[i],
                                       /*base=*/!row_first);
        const auto second = EligibleIds(metric, grid.value(), origin,
                                        radii[i], /*base=*/row_first);
        EXPECT_EQ(first, second)
            << "trial " << trial << " origin " << origin.x << "," << origin.y
            << " radius " << radii[i];
        emitted += static_cast<std::int64_t>(first.size());
      }
    }
  }
  EXPECT_GT(emitted, 1000);  // the comparison is not vacuous
}

TEST(RoadMetricTest, TaskOnTheRadiusIsEligible) {
  // A task whose road distance is exactly the radius is emitted, and one
  // ulp less of radius drops it: the row compare is exact in ticks and the
  // final test is Distance's own sum, so nothing is cut or let through.
  Rng rng(61);
  std::int64_t checked = 0;
  for (int trial = 0; trial < 200; ++trial) {
    RandomGraph g = MakeLattice(&rng, 6, 6);
    auto built = RoadGraph::Build(g.nodes, g.edges);
    ASSERT_TRUE(built.ok()) << built.status().ToString();
    RoadMetric metric(std::make_shared<RoadGraph>(std::move(built).value()));
    const Point origin{rng.Uniform(0.0, 500.0), rng.Uniform(0.0, 500.0)};
    const Point task{rng.Uniform(0.0, 500.0), rng.Uniform(0.0, 500.0)};
    const double radius = UncachedDistance(metric.graph(), origin, task);
    auto grid = GridIndex::Build({task}, 50.0);
    ASSERT_TRUE(grid.ok());
    if (Distance(origin, task) > std::nextafter(radius, 0.0)) continue;
    const std::vector<std::int64_t> want = {0};
    EXPECT_EQ(EligibleIds(metric, grid.value(), origin, radius, false), want);
    EXPECT_TRUE(EligibleIds(metric, grid.value(), origin,
                            std::nextafter(radius, 0.0), false)
                    .empty());
    ++checked;
  }
  EXPECT_GT(checked, 100);
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

/// Gathers from two origins interleaved with Distance calls from both, in
/// both directions, on two metrics whose graphs share the task points, and
/// counts the answers that differ from a from-scratch recompute. The last
/// gather's memo must answer only for its own origin and graph: every third
/// gather, the other metric is asked about the same pairs first. Adds the
/// number of pairs checked to `*checked`.
std::int64_t GatherMemoMismatches(const RoadMetric* metrics,
                                  std::uint64_t seed, std::int64_t* checked) {
  Rng rng(seed);
  // The second half shares the first half's x coordinates, so a key that
  // ignored y would answer for the wrong point.
  std::vector<Point> tasks;
  for (int i = 0; i < 150; ++i) {
    tasks.push_back({rng.Uniform(-20.0, 120.0), rng.Uniform(-20.0, 120.0)});
  }
  for (int i = 0; i < 150; ++i) {
    tasks.push_back({tasks[static_cast<std::size_t>(i)].x,
                     rng.Uniform(-20.0, 120.0)});
  }
  auto grid = GridIndex::Build(tasks, 10.0);
  grid.status().CheckOK();
  std::int64_t mismatches = 0;
  const auto check = [&](const RoadMetric& metric, const Point& a,
                         const Point& b) {
    if (metric.Distance(a, b) != UncachedDistance(metric.graph(), a, b)) {
      ++mismatches;
    }
    ++*checked;
  };
  Point origins[2] = {{50.0, 50.0}, {50.0, 50.0}};
  for (int q = 0; q < 60; ++q) {
    const int o = q % 2;
    const RoadMetric& metric = metrics[(q / 4) % 2];
    const RoadMetric& other = metrics[1 - (q / 4) % 2];
    if (q % 5 < 2) {
      origins[o] = {rng.Uniform(0.0, 100.0), rng.Uniform(0.0, 100.0)};
    } else if (q % 5 == 2) {
      // The same x as the other origin.
      origins[o] = {origins[1 - o].x, rng.Uniform(0.0, 100.0)};
    }
    // A radius of 1e6 emits every task: more than the memo holds.
    const double radius = q % 7 == 0 ? 1e6 : rng.Uniform(0.0, 60.0);
    std::vector<std::int64_t> emitted;
    metric.EligibleWithin(grid.value(), origins[o], radius,
                          [&](std::int64_t id) { emitted.push_back(id); });
    if (q % 3 == 0) {
      for (const std::int64_t id : emitted) {
        check(other, origins[o], tasks[static_cast<std::size_t>(id)]);
      }
    }
    for (const std::int64_t id : emitted) {
      const Point& p = tasks[static_cast<std::size_t>(id)];
      check(metric, origins[o], p);
      check(metric, p, origins[o]);
      check(metric, origins[1 - o], p);
    }
    // Points it did not emit, from its origin.
    for (int i = 0; i < 10; ++i) {
      check(metric, origins[o],
            tasks[static_cast<std::size_t>(rng.UniformInt(0, 299))]);
    }
  }
  return mismatches;
}

TEST(RoadMetricTest, GatherMemoMatchesUncachedRecompute) {
  // The distances RoadMetric::EligibleWithin leaves behind answer Distance
  // bit for bit like a recompute: two origins interleaved, after graph
  // switches, past the memo's capacity, and on two threads at once (each
  // with its own workspace).
  Rng rng(73);
  const RoadMetric metrics[] = {
      RoadMetric(std::make_shared<RoadGraph>(MakeTestGraph(&rng))),
      RoadMetric(std::make_shared<RoadGraph>(MakeTestGraph(&rng)))};
  std::int64_t checked = 0;
  EXPECT_EQ(GatherMemoMismatches(metrics, 1, &checked), 0);
  EXPECT_GT(checked, 5000);  // the comparison is not vacuous

  std::int64_t mismatches[2] = {0, 0};
  std::int64_t counts[2] = {0, 0};
  std::thread other([&] {
    mismatches[1] = GatherMemoMismatches(metrics, 2, &counts[1]);
  });
  mismatches[0] = GatherMemoMismatches(metrics, 3, &counts[0]);
  other.join();
  EXPECT_EQ(mismatches[0], 0);
  EXPECT_EQ(mismatches[1], 0);
  EXPECT_GT(counts[0] + counts[1], 10000);
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
  for (std::int32_t v = 0; v < first.value().num_nodes(); ++v) {
    EXPECT_NE(first.value().NodeTicks(0, v, &ws),
              RoadGraph::kUnreachableTicks);
  }
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
