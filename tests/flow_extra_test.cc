// Additional flow-solver coverage: structural edge cases, demand-shaped
// networks like those MCF-LTC builds, and larger randomized cross-checks.

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

// Networks without negative costs satisfy the layered seed's contract with
// every potential at 0, whatever their shape.
constexpr LayeredSeed kZeroSeed{};

TEST(SspMcmfTest, LongChainManyAugmentations) {
  // st -> c1 -> c2 -> ... -> c50 -> ed with capacity 10 each: one path,
  // 10 units in a single augmentation thanks to bottleneck pushes.
  constexpr int kChain = 50;
  FlowNetworkBuilder b(kChain + 2);
  ASSERT_TRUE(b.AddArc(0, 2, 10, 1).ok());
  for (int i = 0; i < kChain - 1; ++i) {
    ASSERT_TRUE(b.AddArc(2 + i, 3 + i, 10, 1).ok());
  }
  ASSERT_TRUE(b.AddArc(kChain + 1, 1, 10, 1).ok());
  FlowNetwork net;
  b.Build(&net);
  auto r = SspMinCostMaxFlow(&net, 0, 1, kZeroSeed);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->flow, 10);
  EXPECT_EQ(r->cost, 10 * (kChain + 1));
  EXPECT_EQ(r->iterations, 1);  // bottleneck augmentation, not unit pushes
}

TEST(SspMcmfTest, ParallelArcsPickCheaperFirst) {
  // Three parallel unit arcs st -> 2 behind a capacity-2 arc 2 -> ed: the
  // two cheapest carry the flow.
  FlowNetworkBuilder b(3);
  ASSERT_TRUE(b.AddArc(0, 2, 1, 5).ok());
  ASSERT_TRUE(b.AddArc(0, 2, 1, 2).ok());
  ASSERT_TRUE(b.AddArc(0, 2, 1, 9).ok());
  ASSERT_TRUE(b.AddArc(2, 1, 2, 0).ok());
  FlowNetwork net;
  b.Build(&net);
  auto r = SspMinCostMaxFlow(&net, 0, 1, kZeroSeed);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->flow, 2);
  EXPECT_EQ(r->cost, 7);  // 2 + 5
}

TEST(SspMcmfTest, ZeroCapacityArcIgnored) {
  FlowNetworkBuilder b(3);
  ASSERT_TRUE(b.AddArc(0, 1, 0, -100).ok());  // attractive but unusable
  ASSERT_TRUE(b.AddArc(0, 2, 1, 1).ok());
  ASSERT_TRUE(b.AddArc(2, 1, 1, 1).ok());
  FlowNetwork net;
  b.Build(&net);
  // st=0, left {2}, ed=1: the -100 arc enters the sink, priced at -100.
  const LayeredSeed seed{/*right_begin=*/3, /*cost_offset=*/-100};
  auto r = SspMinCostMaxFlow(&net, 0, 1, seed);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->flow, 1);
  EXPECT_EQ(r->cost, 2);
}

TEST(SspMcmfTest, ResidualReroutingRequired) {
  // Classic rerouting: the cheap first path must be partially undone to
  // reach the true optimum for 2 units.
  //   st -> a (cap 1, 0), st -> b (cap 1, 0)
  //   a -> t1 (cap 1, 1), a -> t2 (cap 1, 10)
  //   b -> t1 (cap 1, 2)      [b cannot reach t2]
  //   t1 -> ed (cap 1, 0), t2 -> ed (cap 1, 0)
  // Greedy sends a->t1; the second unit (b) only reaches t1 — SSPA must
  // reroute a to t2 through the residual arc.
  FlowNetworkBuilder b(6);
  ASSERT_TRUE(b.AddArc(0, 2, 1, 0).ok());   // st->a
  ASSERT_TRUE(b.AddArc(0, 3, 1, 0).ok());   // st->b
  ASSERT_TRUE(b.AddArc(2, 4, 1, 1).ok());   // a->t1
  ASSERT_TRUE(b.AddArc(2, 5, 1, 10).ok());  // a->t2
  ASSERT_TRUE(b.AddArc(3, 4, 1, 2).ok());   // b->t1
  ASSERT_TRUE(b.AddArc(4, 1, 1, 0).ok());   // t1->ed
  ASSERT_TRUE(b.AddArc(5, 1, 1, 0).ok());   // t2->ed
  FlowNetwork net;
  b.Build(&net);
  auto r = SspMinCostMaxFlow(&net, 0, 1, kZeroSeed);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->flow, 2);
  EXPECT_EQ(r->cost, 12);  // b->t1 (2) + a->t2 (10)
}

TEST(SspMcmfTest, DemandShapedNetworkSaturatesDemands) {
  // MCF-LTC shape: 3 workers (cap 2), 2 tasks with demands {2, 3}; only 4
  // of 5 demand units are coverable (task arcs limited).
  FlowNetworkBuilder b(7);  // 0 st, 1 ed, 2-4 workers, 5-6 tasks
  for (int w = 2; w <= 4; ++w) {
    ASSERT_TRUE(b.AddArc(0, w, 2, 0).ok());
  }
  // worker 2 -> both tasks, worker 3 -> task 5 only, worker 4 -> task 6 only.
  ASSERT_TRUE(b.AddArc(2, 5, 1, -900).ok());
  ASSERT_TRUE(b.AddArc(2, 6, 1, -800).ok());
  ASSERT_TRUE(b.AddArc(3, 5, 1, -700).ok());
  ASSERT_TRUE(b.AddArc(4, 6, 1, -600).ok());
  ASSERT_TRUE(b.AddArc(5, 1, 2, 0).ok());
  ASSERT_TRUE(b.AddArc(6, 1, 3, 0).ok());
  FlowNetwork net;
  b.Build(&net);
  const LayeredSeed seed{/*right_begin=*/5, /*cost_offset=*/-900};
  auto r = SspMinCostMaxFlow(&net, 0, 1, seed);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->flow, 4);
  EXPECT_EQ(r->cost, -3000);
}

TEST(BellmanFordMcmfTest, NegativeCycleRejected) {
  FlowNetworkBuilder b(3);
  ASSERT_TRUE(b.AddArc(0, 1, 1, -5).ok());
  ASSERT_TRUE(b.AddArc(1, 2, 1, -5).ok());
  ASSERT_TRUE(b.AddArc(2, 0, 1, -5).ok());
  const auto node = b.AddNode();
  ASSERT_TRUE(b.AddArc(0, node, 1, 0).ok());
  FlowNetwork net;
  b.Build(&net);
  auto r = BellmanFordMinCostMaxFlow(&net, 0, node);
  // The source-side negative cycle is reachable; the solver must refuse
  // rather than loop forever.
  EXPECT_FALSE(r.ok());
}

TEST(DinicTest, UnitBipartiteMatching) {
  // 4x4 bipartite perfect matching via unit capacities.
  FlowNetworkBuilder b(10);  // 0 st, 1 ed, 2-5 left, 6-9 right
  for (int l = 0; l < 4; ++l) {
    ASSERT_TRUE(b.AddArc(0, 2 + l, 1, 0).ok());
    ASSERT_TRUE(b.AddArc(6 + l, 1, 1, 0).ok());
  }
  // Ring adjacency: left i -> right i and right (i+1)%4.
  for (int l = 0; l < 4; ++l) {
    ASSERT_TRUE(b.AddArc(2 + l, 6 + l, 1, 0).ok());
    ASSERT_TRUE(b.AddArc(2 + l, 6 + (l + 1) % 4, 1, 0).ok());
  }
  FlowNetwork net;
  b.Build(&net);
  auto r = DinicMaxFlow(&net, 0, 1);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), 4);
}

class BigRandomMcmfTest : public ::testing::TestWithParam<int> {};

TEST_P(BigRandomMcmfTest, SspMatchesBellmanFordOnLargerGraphs) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) + 500);
  const int workers = 20;
  const int tasks = 12;
  const std::uint64_t seed = rng.NextU64();
  auto build = [&](std::uint64_t s) {
    Rng r(s);
    FlowNetworkBuilder b(2 + workers + tasks);
    for (int w = 0; w < workers; ++w) {
      EXPECT_TRUE(b.AddArc(0, 2 + w, r.UniformInt(1, 4), 0).ok());
      for (int t = 0; t < tasks; ++t) {
        if (r.Bernoulli(0.4)) {
          EXPECT_TRUE(b.AddArc(2 + w, 2 + workers + t, 1,
                               -r.UniformInt(1, 100000))
                          .ok());
        }
      }
    }
    for (int t = 0; t < tasks; ++t) {
      EXPECT_TRUE(
          b.AddArc(2 + workers + t, 1, r.UniformInt(1, 6), 0).ok());
    }
    FlowNetwork net;
    b.Build(&net);
    return net;
  };
  FlowNetwork a = build(seed);
  FlowNetwork b = build(seed);
  const LayeredSeed layered{static_cast<NodeId>(2 + workers), -100000};
  auto ra = SspMinCostMaxFlow(&a, 0, 1, layered);
  auto rb = BellmanFordMinCostMaxFlow(&b, 0, 1);
  ASSERT_TRUE(ra.ok());
  ASSERT_TRUE(rb.ok());
  EXPECT_EQ(ra->flow, rb->flow);
  EXPECT_EQ(ra->cost, rb->cost);
}

INSTANTIATE_TEST_SUITE_P(Seeds, BigRandomMcmfTest, ::testing::Range(0, 10));

TEST(FlowBuilderTest, ReuseAfterResetMatchesFreshBuilder) {
  // Regression: Reset() used to leave the previous network's capacities and
  // costs alive in vector capacity; a rebuild with fewer arcs could read
  // them back through stale ArcIds. A recycled builder must now behave
  // byte-for-byte like a never-used one.
  FlowNetworkBuilder reused(6);
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(reused.AddArc(0, 5, 1000 + i, -777 - i).ok());
  }
  FlowNetwork scratch;
  reused.Build(&scratch);

  reused.Reset(4);
  FlowNetworkBuilder fresh(4);
  for (FlowNetworkBuilder* b : {&reused, &fresh}) {
    ASSERT_TRUE(b->AddArc(0, 2, 3, 5).ok());
    ASSERT_TRUE(b->AddArc(2, 1, 2, 7).ok());
  }
  EXPECT_EQ(reused.num_arcs(), fresh.num_arcs());
  for (ArcId a = 0; a < fresh.num_arcs(); ++a) {
    EXPECT_EQ(reused.arc_from(a), fresh.arc_from(a));
    EXPECT_EQ(reused.arc_to(a), fresh.arc_to(a));
    EXPECT_EQ(reused.arc_capacity(a), fresh.arc_capacity(a));
    EXPECT_EQ(reused.arc_cost(a), fresh.arc_cost(a));
  }
  FlowNetwork from_reused;
  FlowNetwork from_fresh;
  reused.Build(&from_reused);
  fresh.Build(&from_fresh);
  auto rr = SspMinCostMaxFlow(&from_reused, 0, 1, kZeroSeed);
  auto rf = SspMinCostMaxFlow(&from_fresh, 0, 1, kZeroSeed);
  ASSERT_TRUE(rr.ok());
  ASSERT_TRUE(rf.ok());
  EXPECT_EQ(rr->flow, rf->flow);
  EXPECT_EQ(rr->cost, rf->cost);
  EXPECT_EQ(rr->flow, 2);
  EXPECT_EQ(rr->cost, 24);
}

TEST(FlowBuilderTest, ApplyDeltaMatchesFreshBuild) {
  // Patch a built network in place (drop two arcs, add two, after cancelling
  // the flow the dropped arcs carried) and check the re-solved optimum and
  // surviving flows equal a from-scratch build of the same final problem.
  FlowNetworkBuilder b(6);  // 0 st, 1 ed, 2-3 lefts, 4-5 rights
  std::vector<ArcId> arcs;
  auto add = [&](NodeId f, NodeId t, std::int64_t cap, std::int64_t cost) {
    auto a = b.AddArc(f, t, cap, cost);
    ASSERT_TRUE(a.ok());
    arcs.push_back(*a);
  };
  add(0, 2, 2, 0);
  add(0, 3, 2, 0);
  add(2, 4, 1, -50);
  add(2, 5, 1, -10);
  add(3, 4, 1, -30);
  add(4, 1, 2, 0);
  add(5, 1, 1, 0);
  FlowNetwork net;
  b.Build(&net);
  const LayeredSeed seed{/*right_begin=*/4, /*cost_offset=*/-50};
  ASSERT_TRUE(SspMinCostMaxFlow(&net, 0, 1, seed).ok());

  // Cancel the doomed arcs along their full st->ed paths (ApplyDelta refuses
  // flow-carrying removals, and partial cancellation would break
  // conservation): l2->r5 rides st->l2 / r5->ed, l3->r4 rides st->l3 /
  // r4->ed.
  const auto cancel_path = [&](ArcId st_arc, ArcId mid_arc, ArcId ed_arc) {
    const std::int64_t f = net.Flow(mid_arc);
    if (f <= 0) return;
    for (const ArcId a : {st_arc, mid_arc, ed_arc}) {
      net.Push(net.ArcSlot(a), -f);
    }
  };
  cancel_path(arcs[0], arcs[3], arcs[6]);
  cancel_path(arcs[1], arcs[4], arcs[5]);
  std::vector<FlowNetworkBuilder::ArcSpec> added = {{3, 5, 1, -40},
                                                    {2, 4, 1, -20}};
  std::vector<ArcId> remap;
  ASSERT_TRUE(b.ApplyDelta(&net, added, {arcs[3], arcs[4]}, &remap).ok());
  EXPECT_EQ(remap[static_cast<std::size_t>(arcs[2])], arcs[2]);
  EXPECT_EQ(remap[static_cast<std::size_t>(arcs[3])], -1);
  // Surviving flow was re-installed on the compacted CSR.
  EXPECT_EQ(net.Flow(remap[static_cast<std::size_t>(arcs[2])]),
            static_cast<std::int64_t>(1));
  // The surviving flow rides only the -50 arc, whose cost equals the
  // seed's offset, so its reverse residual is priced at reduced cost 0 and
  // the seed stays valid for the re-solve.
  auto patched = SspMinCostMaxFlow(&net, 0, 1, seed);
  ASSERT_TRUE(patched.ok());

  FlowNetworkBuilder fb(6);
  FlowNetwork fnet;
  ASSERT_TRUE(fb.AddArc(0, 2, 2, 0).ok());
  ASSERT_TRUE(fb.AddArc(0, 3, 2, 0).ok());
  ASSERT_TRUE(fb.AddArc(2, 4, 1, -50).ok());
  ASSERT_TRUE(fb.AddArc(2, 5, 1, -10).ok());
  ASSERT_TRUE(fb.AddArc(4, 1, 2, 0).ok());
  ASSERT_TRUE(fb.AddArc(5, 1, 1, 0).ok());
  ASSERT_TRUE(fb.AddArc(3, 5, 1, -40).ok());
  ASSERT_TRUE(fb.AddArc(2, 4, 1, -20).ok());
  fb.Build(&fnet);
  auto scratch = SspMinCostMaxFlow(&fnet, 0, 1, seed);
  ASSERT_TRUE(scratch.ok());
  // The patched network resumes from the surviving flow, so its incremental
  // result plus what was already on the wire must equal the fresh optimum.
  std::int64_t patched_cost = 0;
  std::int64_t patched_flow = 0;
  for (ArcId a = 0; a < b.num_arcs(); ++a) {
    if (b.arc_from(a) == 0) patched_flow += net.Flow(a);
    patched_cost += b.arc_cost(a) * net.Flow(a);
  }
  EXPECT_EQ(patched_flow, scratch->flow);
  EXPECT_EQ(patched_cost, scratch->cost);
}

}  // namespace
}  // namespace flow
}  // namespace ltc
