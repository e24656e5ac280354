// Tests for the flow substrate: CSR network representation and builder,
// the Dinic max-flow oracle and the layered-seed SSP min-cost max-flow
// solver, with randomized cross-checks against the Bellman-Ford oracle and
// builder/network reuse coverage.

#include <gtest/gtest.h>

#include <vector>

#include "common/random.h"
#include "flow/graph.h"
#include "flow/min_cost_flow.h"
#include "oracles/max_flow.h"
#include "oracles/min_cost_flow.h"

namespace ltc {
namespace flow {
namespace {

/// Builds and returns the network accumulated in `b`.
FlowNetwork Built(FlowNetworkBuilder* b) {
  FlowNetwork net;
  b->Build(&net);
  return net;
}

TEST(FlowNetworkBuilderTest, AddArcValidation) {
  FlowNetworkBuilder b(3);
  EXPECT_TRUE(b.AddArc(0, 1, 5, 2).ok());
  EXPECT_FALSE(b.AddArc(-1, 1, 5, 2).ok());
  EXPECT_FALSE(b.AddArc(0, 3, 5, 2).ok());
  EXPECT_FALSE(b.AddArc(0, 1, -1, 2).ok());
}

TEST(FlowNetworkTest, PairedSlotsAndPush) {
  FlowNetworkBuilder b(2);
  auto arc = b.AddArc(0, 1, 10, 3);
  ASSERT_TRUE(arc.ok());
  FlowNetwork net = Built(&b);
  const ArcId a = arc.value();
  const ArcIndex s = net.ArcSlot(a);
  EXPECT_EQ(net.head(s), 1);
  EXPECT_EQ(net.tail(s), 0);
  EXPECT_EQ(net.residual(s), 10);
  EXPECT_EQ(net.residual(net.rev(s)), 0);
  EXPECT_EQ(net.cost(s), 3);
  EXPECT_EQ(net.cost(net.rev(s)), -3);
  EXPECT_EQ(net.rev(net.rev(s)), s);
  net.Push(s, 4);
  EXPECT_EQ(net.residual(s), 6);
  EXPECT_EQ(net.residual(net.rev(s)), 4);
  EXPECT_EQ(net.Flow(a), 4);
  net.ResetFlow();
  EXPECT_EQ(net.Flow(a), 0);
  EXPECT_EQ(net.residual(s), 10);
}

TEST(FlowNetworkTest, CsrAdjacencyIsComplete) {
  FlowNetworkBuilder b(4);
  ASSERT_TRUE(b.AddArc(0, 1, 1, 0).ok());
  ASSERT_TRUE(b.AddArc(0, 2, 2, 0).ok());
  ASSERT_TRUE(b.AddArc(1, 3, 3, 0).ok());
  ASSERT_TRUE(b.AddArc(2, 3, 4, 0).ok());
  FlowNetwork net = Built(&b);
  EXPECT_EQ(net.num_arcs(), 4);
  EXPECT_EQ(net.num_slots(), 8);
  // Every slot appears exactly once under its tail node.
  std::vector<int> seen(static_cast<std::size_t>(net.num_slots()), 0);
  for (NodeId v = 0; v < net.num_nodes(); ++v) {
    for (ArcIndex s = net.OutBegin(v); s < net.OutEnd(v); ++s) {
      EXPECT_EQ(net.tail(s), v);
      ++seen[static_cast<std::size_t>(s)];
    }
  }
  for (int c : seen) EXPECT_EQ(c, 1);
}

TEST(FlowNetworkBuilderTest, AddNodeGrows) {
  FlowNetworkBuilder b(1);
  EXPECT_EQ(b.AddNode(), 1);
  EXPECT_EQ(b.num_nodes(), 2);
  FlowNetwork net = Built(&b);
  EXPECT_EQ(net.num_nodes(), 2);
}

TEST(DinicTest, ClassicTextbookInstance) {
  // CLRS-style: max flow 23.
  FlowNetworkBuilder b(6);
  ASSERT_TRUE(b.AddArc(0, 1, 16, 0).ok());
  ASSERT_TRUE(b.AddArc(0, 2, 13, 0).ok());
  ASSERT_TRUE(b.AddArc(1, 2, 10, 0).ok());
  ASSERT_TRUE(b.AddArc(2, 1, 4, 0).ok());
  ASSERT_TRUE(b.AddArc(1, 3, 12, 0).ok());
  ASSERT_TRUE(b.AddArc(3, 2, 9, 0).ok());
  ASSERT_TRUE(b.AddArc(2, 4, 14, 0).ok());
  ASSERT_TRUE(b.AddArc(4, 3, 7, 0).ok());
  ASSERT_TRUE(b.AddArc(3, 5, 20, 0).ok());
  ASSERT_TRUE(b.AddArc(4, 5, 4, 0).ok());
  FlowNetwork net = Built(&b);
  auto flow = DinicMaxFlow(&net, 0, 5);
  ASSERT_TRUE(flow.ok());
  EXPECT_EQ(flow.value(), 23);
}

TEST(DinicTest, DisconnectedGraphZeroFlow) {
  FlowNetworkBuilder b(4);
  ASSERT_TRUE(b.AddArc(0, 1, 5, 0).ok());
  ASSERT_TRUE(b.AddArc(2, 3, 5, 0).ok());
  FlowNetwork net = Built(&b);
  auto flow = DinicMaxFlow(&net, 0, 3);
  ASSERT_TRUE(flow.ok());
  EXPECT_EQ(flow.value(), 0);
}

TEST(DinicTest, RejectsBadEndpoints) {
  FlowNetworkBuilder b(2);
  FlowNetwork net = Built(&b);
  EXPECT_FALSE(DinicMaxFlow(&net, 0, 0).ok());
  EXPECT_FALSE(DinicMaxFlow(&net, 0, 5).ok());
}

// Networks without negative costs satisfy the layered seed's contract with
// every potential at 0, whatever their shape.
constexpr LayeredSeed kZeroSeed{};

TEST(SspMcmfTest, SimpleTwoPathChoice) {
  // Two unit paths st -> {1, 2} -> 3 with costs 1 and 3: both units cost 4;
  // behind a unit-capacity sink arc 3 -> 4 only the cost-1 path is taken.
  FlowNetworkBuilder b(5);
  ASSERT_TRUE(b.AddArc(0, 1, 1, 1).ok());
  ASSERT_TRUE(b.AddArc(0, 2, 1, 3).ok());
  ASSERT_TRUE(b.AddArc(1, 3, 1, 0).ok());
  ASSERT_TRUE(b.AddArc(2, 3, 1, 0).ok());
  ASSERT_TRUE(b.AddArc(3, 4, 1, 0).ok());
  FlowNetwork net = Built(&b);
  auto r1 = SspMinCostMaxFlow(&net, 0, 4, kZeroSeed);
  ASSERT_TRUE(r1.ok());
  EXPECT_EQ(r1->flow, 1);
  EXPECT_EQ(r1->cost, 1);
  net.ResetFlow();
  auto r2 = SspMinCostMaxFlow(&net, 0, 3, kZeroSeed);
  ASSERT_TRUE(r2.ok());
  EXPECT_EQ(r2->flow, 2);
  EXPECT_EQ(r2->cost, 4);
}

TEST(SspMcmfTest, NegativeCostsHandled) {
  // The LTC shape: st=0, worker 1, tasks {2, 3}, ed=4, with negative
  // worker->task costs absorbed by the layered seed.
  FlowNetworkBuilder b(4);
  ASSERT_TRUE(b.AddArc(0, 1, 2, 0).ok());
  ASSERT_TRUE(b.AddArc(1, 2, 1, -10).ok());
  ASSERT_TRUE(b.AddArc(1, 3, 1, -20).ok());
  const NodeId sink = b.AddNode();
  ASSERT_TRUE(b.AddArc(2, sink, 1, 0).ok());
  ASSERT_TRUE(b.AddArc(3, sink, 1, 0).ok());
  FlowNetwork net = Built(&b);
  const LayeredSeed seed{/*right_begin=*/2, /*cost_offset=*/-20};
  auto r = SspMinCostMaxFlow(&net, 0, sink, seed);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->flow, 2);
  EXPECT_EQ(r->cost, -30);
}

TEST(SspMcmfTest, RequiresDistinctEndpoints) {
  FlowNetworkBuilder b(2);
  FlowNetwork net = Built(&b);
  EXPECT_FALSE(SspMinCostMaxFlow(&net, 1, 1, kZeroSeed).ok());
  EXPECT_FALSE(SspMinCostMaxFlow(&net, 0, 9, kZeroSeed).ok());
}

TEST(BellmanFordMcmfTest, MatchesSspOnTextbookInstance) {
  auto build = [] {
    FlowNetworkBuilder b(5);
    EXPECT_TRUE(b.AddArc(0, 1, 4, 2).ok());
    EXPECT_TRUE(b.AddArc(0, 2, 2, 4).ok());
    EXPECT_TRUE(b.AddArc(1, 2, 2, 1).ok());
    EXPECT_TRUE(b.AddArc(1, 3, 3, 5).ok());
    EXPECT_TRUE(b.AddArc(2, 3, 4, 2).ok());
    EXPECT_TRUE(b.AddArc(3, 4, 5, 0).ok());
    FlowNetwork net;
    b.Build(&net);
    return net;
  };
  FlowNetwork a = build();
  FlowNetwork b = build();
  auto ra = SspMinCostMaxFlow(&a, 0, 4, kZeroSeed);
  auto rb = BellmanFordMinCostMaxFlow(&b, 0, 4);
  ASSERT_TRUE(ra.ok());
  ASSERT_TRUE(rb.ok());
  EXPECT_EQ(ra->flow, rb->flow);
  EXPECT_EQ(ra->cost, rb->cost);
}

TEST(FlowNetworkBuilderTest, ResetAndRebuildGivesIdenticalResults) {
  // One builder + one network recycled across builds (the MCF-LTC batch
  // pattern) must reproduce the results of fresh objects exactly.
  FlowNetworkBuilder builder;
  FlowNetwork net;
  McmfWorkspace workspace;

  std::vector<std::int64_t> flows;
  std::vector<std::int64_t> costs;
  for (int round = 0; round < 2; ++round) {
    // Build A: two-path choice.
    builder.Reset(4);
    ASSERT_TRUE(builder.AddArc(0, 1, 1, 1).ok());
    ASSERT_TRUE(builder.AddArc(0, 2, 1, 3).ok());
    ASSERT_TRUE(builder.AddArc(1, 3, 1, 0).ok());
    ASSERT_TRUE(builder.AddArc(2, 3, 1, 0).ok());
    builder.Build(&net);
    auto ra = SspMinCostMaxFlow(&net, 0, 3, kZeroSeed, &workspace);
    ASSERT_TRUE(ra.ok());
    flows.push_back(ra->flow);
    costs.push_back(ra->cost);

    // Build B (different shape/size): bipartite with negative costs.
    builder.Reset(6);
    ASSERT_TRUE(builder.AddArc(0, 2, 2, 0).ok());
    ASSERT_TRUE(builder.AddArc(0, 3, 2, 0).ok());
    ASSERT_TRUE(builder.AddArc(2, 4, 1, -500).ok());
    ASSERT_TRUE(builder.AddArc(3, 5, 1, -100).ok());
    ASSERT_TRUE(builder.AddArc(4, 1, 1, 0).ok());
    ASSERT_TRUE(builder.AddArc(5, 1, 1, 0).ok());
    builder.Build(&net);
    const LayeredSeed seed{/*right_begin=*/4, /*cost_offset=*/-500};
    auto rb = SspMinCostMaxFlow(&net, 0, 1, seed, &workspace);
    ASSERT_TRUE(rb.ok());
    flows.push_back(rb->flow);
    costs.push_back(rb->cost);
  }
  // Round 2 (recycled arrays) == round 1 (first use).
  EXPECT_EQ(flows[0], flows[2]);
  EXPECT_EQ(costs[0], costs[2]);
  EXPECT_EQ(flows[1], flows[3]);
  EXPECT_EQ(costs[1], costs[3]);
  EXPECT_EQ(flows[0], 2);
  EXPECT_EQ(costs[0], 4);
  EXPECT_EQ(flows[1], 2);
  EXPECT_EQ(costs[1], -600);
}

TEST(FlowNetworkTest, ResetFlowThenResolveIsIdentical) {
  FlowNetworkBuilder b(5);
  ASSERT_TRUE(b.AddArc(0, 1, 4, 2).ok());
  ASSERT_TRUE(b.AddArc(0, 2, 2, 4).ok());
  ASSERT_TRUE(b.AddArc(1, 2, 2, 1).ok());
  ASSERT_TRUE(b.AddArc(1, 3, 3, 5).ok());
  ASSERT_TRUE(b.AddArc(2, 3, 4, 2).ok());
  ASSERT_TRUE(b.AddArc(3, 4, 5, 0).ok());
  FlowNetwork net = Built(&b);
  auto r1 = SspMinCostMaxFlow(&net, 0, 4, kZeroSeed);
  ASSERT_TRUE(r1.ok());
  net.ResetFlow();
  for (ArcId a = 0; a < net.num_arcs(); ++a) EXPECT_EQ(net.Flow(a), 0);
  auto r2 = SspMinCostMaxFlow(&net, 0, 4, kZeroSeed);
  ASSERT_TRUE(r2.ok());
  EXPECT_EQ(r1->flow, r2->flow);
  EXPECT_EQ(r1->cost, r2->cost);
}

/// Verifies flow conservation and capacity constraints on every node/arc.
void CheckFlowValid(const FlowNetwork& net, NodeId source, NodeId sink,
                    std::int64_t expected_value) {
  std::vector<std::int64_t> net_out(static_cast<std::size_t>(net.num_nodes()),
                                    0);
  for (ArcId a = 0; a < net.num_arcs(); ++a) {
    const std::int64_t f = net.Flow(a);
    const ArcIndex s = net.ArcSlot(a);
    EXPECT_GE(f, 0) << "arc " << a;
    EXPECT_GE(net.residual(s), 0) << "arc " << a;
    net_out[static_cast<std::size_t>(net.tail(s))] += f;
    net_out[static_cast<std::size_t>(net.head(s))] -= f;
  }
  for (NodeId v = 0; v < net.num_nodes(); ++v) {
    if (v == source) {
      EXPECT_EQ(net_out[static_cast<std::size_t>(v)], expected_value);
    } else if (v == sink) {
      EXPECT_EQ(net_out[static_cast<std::size_t>(v)], -expected_value);
    } else {
      EXPECT_EQ(net_out[static_cast<std::size_t>(v)], 0) << "node " << v;
    }
  }
}

class McmfRandomTest : public ::testing::TestWithParam<int> {};

TEST_P(McmfRandomTest, SspMatchesBellmanFordOnRandomBipartite) {
  Rng rng(static_cast<std::uint64_t>(GetParam()));
  // Random LTC-shaped network: st -> workers -> tasks -> ed with negative
  // worker->task costs.
  const int workers = static_cast<int>(rng.UniformInt(1, 8));
  const int tasks = static_cast<int>(rng.UniformInt(1, 6));
  const int capacity = static_cast<int>(rng.UniformInt(1, 3));
  auto build = [&](Rng seeded) {
    FlowNetworkBuilder b(2 + workers + tasks);
    for (int w = 0; w < workers; ++w) {
      EXPECT_TRUE(b.AddArc(0, 2 + w, capacity, 0).ok());
      for (int t = 0; t < tasks; ++t) {
        if (seeded.Bernoulli(0.7)) {
          EXPECT_TRUE(b.AddArc(2 + w, 2 + workers + t, 1,
                               -seeded.UniformInt(1, 1000))
                          .ok());
        }
      }
    }
    for (int t = 0; t < tasks; ++t) {
      EXPECT_TRUE(b.AddArc(2 + workers + t, 1, seeded.UniformInt(1, 4), 0)
                      .ok());
    }
    FlowNetwork net;
    b.Build(&net);
    return net;
  };
  const std::uint64_t arc_seed = rng.NextU64();
  FlowNetwork a = build(Rng(arc_seed));
  FlowNetwork b = build(Rng(arc_seed));

  // The layered closed-form seed (valid for this st->worker->task->ed
  // shape) must reach the oracle's optimum, workspace reused across seeds.
  static McmfWorkspace shared_workspace;
  const LayeredSeed seed{static_cast<NodeId>(2 + workers), -1000};
  auto ra = SspMinCostMaxFlow(&a, 0, 1, seed, &shared_workspace);
  auto rb = BellmanFordMinCostMaxFlow(&b, 0, 1);
  ASSERT_TRUE(ra.ok());
  ASSERT_TRUE(rb.ok());
  EXPECT_EQ(ra->flow, rb->flow);
  EXPECT_EQ(ra->cost, rb->cost);
  CheckFlowValid(a, 0, 1, ra->flow);

  // Max-flow value agrees with Dinic.
  FlowNetwork e = build(Rng(arc_seed));
  auto re = DinicMaxFlow(&e, 0, 1);
  ASSERT_TRUE(re.ok());
  EXPECT_EQ(re.value(), ra->flow);
}

// >= 100 seeded networks: the ISSUE-2 equivalence bar for the CSR refactor.
INSTANTIATE_TEST_SUITE_P(Seeds, McmfRandomTest, ::testing::Range(0, 100));

}  // namespace
}  // namespace flow
}  // namespace ltc
