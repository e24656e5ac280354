// Differential harness for the warm-start incremental MCF solver.
//
// Every test drives an IncrementalMcmf (and, in the randomized sequences, a
// second instance with warm starts disabled) through a sequence of the five
// deltas MCF-LTC sends (AddLeft, AddRight, AddArc, SetDeficit, RetireLeft)
// while a plain mirror records the live problem: left supplies, right demand
// totals, and the (left, right, capacity, cost) of every live arc. After
// each Solve the mirror is compiled into the classic st/ed formulation and
// handed to the from-scratch SSP solver — reference flow value, total cost,
// per-arc flows, conservation, and capacity bounds must all match the
// incremental state.
// Costs are drawn wide (|cost| up to 1e9) so optima are unique in practice
// and per-arc comparison is meaningful; seeds are pinned, so a sequence that
// passes once passes forever.
//
// Sequence shapes follow the streaming regimes the harness exists for
// (PAPERS.md: batched assignment under skewed, continuously-arriving
// streams): a Poisson-style uniform instance and a hotspot instance where a
// Zipf-skewed handful of rights receives most arcs.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/random.h"
#include "flow/graph.h"
#include "flow/min_cost_flow.h"

namespace ltc {
namespace flow {
namespace {

struct MirrorArc {
  NodeId left = -1;
  NodeId right = -1;
  std::int64_t capacity = 0;
  std::int64_t cost = 0;
  bool alive = false;
};

struct MirrorNode {
  char kind = 0;  // 0 free, 1 left, 2 right
  std::int64_t supply = 0;  // lefts
  std::int64_t demand = 0;  // rights: live wanted total (deficit + inflow)
};

/// Drives N IncrementalMcmf instances through one delta sequence and checks
/// them against a mirror-built from-scratch reference after every Solve.
class Differential {
 public:
  explicit Differential(std::vector<IncrementalMcmfOptions> variants) {
    for (const auto& options : variants) solvers_.emplace_back(options);
  }

  IncrementalMcmf& primary() { return solvers_.front(); }

  NodeId AddLeft(std::int64_t supply) {
    NodeId id = -1;
    for (auto& s : solvers_) id = s.AddLeft(supply);
    if (static_cast<std::size_t>(id) >= nodes_.size()) {
      nodes_.resize(static_cast<std::size_t>(id) + 1);
    }
    nodes_[static_cast<std::size_t>(id)] = MirrorNode{1, supply, 0};
    lefts_.push_back(id);
    return id;
  }

  NodeId AddRight(std::int64_t deficit) {
    NodeId id = -1;
    for (auto& s : solvers_) id = s.AddRight(deficit);
    if (static_cast<std::size_t>(id) >= nodes_.size()) {
      nodes_.resize(static_cast<std::size_t>(id) + 1);
    }
    nodes_[static_cast<std::size_t>(id)] = MirrorNode{2, 0, deficit};
    rights_.push_back(id);
    return id;
  }

  ArcId AddArc(NodeId left, NodeId right, std::int64_t capacity,
               std::int64_t cost) {
    ArcId id = -1;
    for (auto& s : solvers_) {
      auto r = s.AddArc(left, right, capacity, cost);
      EXPECT_TRUE(r.ok()) << r.status().ToString();
      id = *r;
    }
    if (static_cast<std::size_t>(id) >= arcs_.size()) {
      arcs_.resize(static_cast<std::size_t>(id) + 1);
    }
    arcs_[static_cast<std::size_t>(id)] =
        MirrorArc{left, right, capacity, cost, true};
    return id;
  }

  void SetDeficit(NodeId right, std::int64_t deficit) {
    // The live total becomes deficit + inflow; inflow is read off the
    // primary's per-arc flows, which the previous CheckAgainstReference
    // verified optimal (all solvers agree on them).
    nodes_[static_cast<std::size_t>(right)].demand = deficit + Inflow(right);
    for (auto& s : solvers_) {
      const auto status = s.SetDeficit(right, deficit);
      EXPECT_TRUE(status.ok()) << status.ToString();
    }
  }

  void RetireLeft(NodeId left) {
    // Frozen units leave the live problem for good: shrink the demand
    // totals by what this left had delivered (verified optimal flows).
    for (std::size_t a = 0; a < arcs_.size(); ++a) {
      if (!arcs_[a].alive || arcs_[a].left != left) continue;
      nodes_[static_cast<std::size_t>(arcs_[a].right)].demand -=
          primary().ArcFlow(static_cast<ArcId>(a));
    }
    for (auto& s : solvers_) {
      const auto status = s.RetireLeft(left);
      EXPECT_TRUE(status.ok()) << status.ToString();
    }
    for (auto& arc : arcs_) {
      if (arc.alive && arc.left == left) arc.alive = false;
    }
    nodes_[static_cast<std::size_t>(left)].kind = 0;
    lefts_.erase(std::find(lefts_.begin(), lefts_.end(), left));
  }

  void SolveAndCheck() {
    for (auto& s : solvers_) {
      const auto r = s.Solve();
      ASSERT_TRUE(r.ok()) << r.status().ToString();
    }
    CheckAgainstReference();
  }

  const std::vector<NodeId>& lefts() const { return lefts_; }
  const std::vector<NodeId>& rights() const { return rights_; }

 private:
  std::int64_t Inflow(NodeId right) const {
    std::int64_t inflow = 0;
    for (std::size_t a = 0; a < arcs_.size(); ++a) {
      if (arcs_[a].alive && arcs_[a].right == right) {
        // primary() is non-const only because ArcFlow is const on solvers_.
        inflow += solvers_.front().ArcFlow(static_cast<ArcId>(a));
      }
    }
    return inflow;
  }

  /// Compiles the mirror into layered st/lefts/rights/ed form, solves from
  /// scratch (layered-seed SSP — a different code path from the incremental
  /// solver), and compares.
  void CheckAgainstReference() {
    std::vector<NodeId> ref_of(nodes_.size(), -1);
    NodeId next = 1;  // 0 = st
    for (const NodeId l : lefts_) ref_of[static_cast<std::size_t>(l)] = next++;
    for (const NodeId r : rights_) {
      if (nodes_[static_cast<std::size_t>(r)].kind == 2) {
        ref_of[static_cast<std::size_t>(r)] = next++;
      }
    }
    const NodeId right_begin = 1 + static_cast<NodeId>(lefts_.size());
    const NodeId ed = next;
    FlowNetworkBuilder builder(ed + 1);
    for (const NodeId l : lefts_) {
      const auto& n = nodes_[static_cast<std::size_t>(l)];
      if (n.supply > 0) {
        ASSERT_TRUE(
            builder.AddArc(0, ref_of[static_cast<std::size_t>(l)], n.supply, 0)
                .ok());
      }
    }
    std::vector<ArcId> ref_arc_of(arcs_.size(), -1);
    std::int64_t min_cost = 0;
    for (std::size_t a = 0; a < arcs_.size(); ++a) {
      if (!arcs_[a].alive) continue;
      min_cost = std::min(min_cost, arcs_[a].cost);
      auto r = builder.AddArc(ref_of[static_cast<std::size_t>(arcs_[a].left)],
                              ref_of[static_cast<std::size_t>(arcs_[a].right)],
                              arcs_[a].capacity, arcs_[a].cost);
      ASSERT_TRUE(r.ok());
      ref_arc_of[a] = *r;
    }
    for (const NodeId r : rights_) {
      const auto& n = nodes_[static_cast<std::size_t>(r)];
      if (n.demand > 0) {
        ASSERT_TRUE(
            builder.AddArc(ref_of[static_cast<std::size_t>(r)], ed, n.demand, 0)
                .ok());
      }
    }
    FlowNetwork net;
    builder.Build(&net);
    const LayeredSeed seed{right_begin, min_cost};
    const auto ref = SspMinCostMaxFlow(&net, 0, ed, seed);
    ASSERT_TRUE(ref.ok()) << ref.status().ToString();

    for (auto& s : solvers_) {
      EXPECT_EQ(s.TotalFlow(), ref->flow);
      EXPECT_EQ(s.TotalCost(), ref->cost);
      // Per-arc flows (the extracted assignments): identical to from-scratch
      // under the unique optima the wide random costs give us.
      for (std::size_t a = 0; a < arcs_.size(); ++a) {
        if (!arcs_[a].alive) continue;
        const std::int64_t flow = s.ArcFlow(static_cast<ArcId>(a));
        EXPECT_EQ(flow, net.Flow(ref_arc_of[a]))
            << "arc " << a << " (" << arcs_[a].left << " -> "
            << arcs_[a].right << ")";
        EXPECT_GE(flow, 0);
        EXPECT_LE(flow, arcs_[a].capacity);
      }
      // Conservation at the lefts: sent == supply - excess, never above
      // supply; and at the rights: deficit accounts for every unit received.
      for (const NodeId l : lefts_) {
        std::int64_t sent = 0;
        for (std::size_t a = 0; a < arcs_.size(); ++a) {
          if (arcs_[a].alive && arcs_[a].left == l) {
            sent += s.ArcFlow(static_cast<ArcId>(a));
          }
        }
        const auto& n = nodes_[static_cast<std::size_t>(l)];
        EXPECT_EQ(sent, n.supply - s.Excess(l));
        EXPECT_LE(sent, n.supply);
      }
      for (const NodeId r : rights_) {
        std::int64_t received = 0;
        for (std::size_t a = 0; a < arcs_.size(); ++a) {
          if (arcs_[a].alive && arcs_[a].right == r) {
            received += s.ArcFlow(static_cast<ArcId>(a));
          }
        }
        EXPECT_EQ(s.Deficit(r),
                  nodes_[static_cast<std::size_t>(r)].demand - received);
      }
    }
  }

  std::vector<IncrementalMcmf> solvers_;
  std::vector<MirrorNode> nodes_;
  std::vector<MirrorArc> arcs_;
  std::vector<NodeId> lefts_;   // live, in insertion order
  std::vector<NodeId> rights_;  // ever added (kind marks liveness)
};

std::vector<IncrementalMcmfOptions> WarmAndCold() {
  IncrementalMcmfOptions warm;
  warm.warm_start = true;
  warm.drift_check_every = 3;  // exercise the internal check on the way
  IncrementalMcmfOptions cold;
  cold.warm_start = false;
  return {warm, cold};
}

std::int64_t WideCost(Rng* rng) {
  return rng->UniformInt(-1'000'000'000, 1'000'000'000);
}

/// One randomized sequence: grow an instance batch by batch, interleaving
/// arrivals, new arcs between existing nodes, deficit rewrites, and
/// retirements with Solve+check steps. `hotspot` skews arc targets.
void RunSequence(std::uint64_t seed, bool hotspot) {
  SCOPED_TRACE(testing::Message() << "seed=" << seed
                                  << " hotspot=" << hotspot);
  Rng rng(seed);
  Differential d(WarmAndCold());

  const int batches = static_cast<int>(rng.UniformInt(3, 6));
  for (int batch = 0; batch < batches; ++batch) {
    // Arrivals: a few rights, then a few lefts wired to random rights.
    const int new_rights = static_cast<int>(rng.UniformInt(1, 4));
    for (int i = 0; i < new_rights; ++i) {
      d.AddRight(rng.UniformInt(1, 5));
    }
    const int new_lefts = static_cast<int>(rng.UniformInt(2, 5));
    for (int i = 0; i < new_lefts; ++i) {
      const NodeId l = d.AddLeft(rng.UniformInt(1, 3));
      const auto& rights = d.rights();
      const int degree = static_cast<int>(
          rng.UniformInt(1, static_cast<std::int64_t>(rights.size())));
      for (int k = 0; k < degree; ++k) {
        const auto pick = static_cast<std::size_t>(
            hotspot ? rng.Zipf(static_cast<std::int64_t>(rights.size()), 1.2)
                    : rng.UniformInt(
                          0, static_cast<std::int64_t>(rights.size()) - 1));
        d.AddArc(l, rights[pick], rng.UniformInt(1, 3), WideCost(&rng));
      }
    }
    d.SolveAndCheck();

    // Departures / moves: mutate the solved state, then re-solve.
    const int mutations = static_cast<int>(rng.UniformInt(1, 5));
    for (int m = 0; m < mutations; ++m) {
      switch (rng.UniformInt(0, 2)) {
        case 0: {  // new arc between existing nodes (a "move")
          if (d.lefts().empty()) break;
          const NodeId l = d.lefts()[static_cast<std::size_t>(rng.UniformInt(
              0, static_cast<std::int64_t>(d.lefts().size()) - 1))];
          const auto& rights = d.rights();
          const NodeId r = rights[static_cast<std::size_t>(rng.UniformInt(
              0, static_cast<std::int64_t>(rights.size()) - 1))];
          d.AddArc(l, r, rng.UniformInt(1, 3), WideCost(&rng));
          break;
        }
        case 1: {  // deficit rewrite (task progress / reopening)
          const auto& rights = d.rights();
          const NodeId r = rights[static_cast<std::size_t>(rng.UniformInt(
              0, static_cast<std::int64_t>(rights.size()) - 1))];
          d.SetDeficit(r, rng.UniformInt(0, 5));
          break;
        }
        default: {  // departure
          if (d.lefts().size() <= 1) break;
          const NodeId l = d.lefts()[static_cast<std::size_t>(rng.UniformInt(
              0, static_cast<std::int64_t>(d.lefts().size()) - 1))];
          d.RetireLeft(l);
          break;
        }
      }
    }
    d.SolveAndCheck();
  }
}

TEST(FlowIncrementalDifferentialTest, PoissonSequences) {
  for (std::uint64_t seed = 0; seed < 110; ++seed) RunSequence(seed, false);
}

TEST(FlowIncrementalDifferentialTest, HotspotSequences) {
  for (std::uint64_t seed = 1000; seed < 1110; ++seed) RunSequence(seed, true);
}

// --- Directed regressions ---

TEST(FlowIncrementalTest, EmptyDeltaResolveIsWarmAndExact) {
  Differential d(WarmAndCold());
  const NodeId r0 = d.AddRight(2);
  const NodeId r1 = d.AddRight(1);
  const NodeId l0 = d.AddLeft(2);
  const NodeId l1 = d.AddLeft(1);
  d.AddArc(l0, r0, 1, -500);
  d.AddArc(l0, r1, 1, -300);
  d.AddArc(l1, r0, 1, -400);
  d.SolveAndCheck();
  // No deltas: the warm re-solve must push nothing and stay warm.
  auto& warm = d.primary();
  const auto again = warm.Solve();
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again->flow, 0);
  EXPECT_EQ(again->iterations, 0);
  EXPECT_FALSE(warm.last_solve_cold());
  d.SolveAndCheck();  // and the cold twin still agrees
}

TEST(FlowIncrementalTest, AllRetiredThenRebuilt) {
  Differential d(WarmAndCold());
  const NodeId r0 = d.AddRight(3);
  const NodeId r1 = d.AddRight(2);
  const NodeId l0 = d.AddLeft(2);
  const NodeId l1 = d.AddLeft(2);
  d.AddArc(l0, r0, 2, -700);
  d.AddArc(l0, r1, 1, -200);
  d.AddArc(l1, r0, 1, -900);
  d.SolveAndCheck();
  const std::int64_t delivered = d.primary().TotalFlow();
  EXPECT_GT(delivered, 0);
  // Retire every left: the live network empties and every delivered unit
  // is frozen at its right, never reopened.
  d.RetireLeft(l0);
  d.RetireLeft(l1);
  d.SolveAndCheck();
  auto& warm = d.primary();
  EXPECT_EQ(warm.TotalFlow(), 0);
  EXPECT_EQ(warm.TotalCost(), 0);
  EXPECT_EQ(warm.Consumed(r0) + warm.Consumed(r1), delivered);
  EXPECT_EQ(warm.Deficit(r0) + warm.Consumed(r0), 3);
  EXPECT_EQ(warm.Deficit(r1) + warm.Consumed(r1), 2);
  // Rebuild on the emptied instance (recycled node and arc ids); the warm
  // state must still work.
  const NodeId l2 = d.AddLeft(2);
  const NodeId l3 = d.AddLeft(2);
  d.AddArc(l2, r1, 2, -650);
  d.AddArc(l3, r0, 2, -150);
  d.SolveAndCheck();
  EXPECT_GT(warm.TotalFlow(), 0);
}

TEST(FlowIncrementalTest, FreezeRemovesDeliveredUnitsFromLiveProblem) {
  IncrementalMcmf incr;
  const NodeId r = incr.AddRight(2);
  const NodeId l = incr.AddLeft(1);
  ASSERT_TRUE(incr.AddArc(l, r, 1, -100).ok());
  ASSERT_TRUE(incr.Solve().ok());
  EXPECT_EQ(incr.TotalFlow(), 1);
  EXPECT_EQ(incr.Deficit(r), 1);
  ASSERT_TRUE(incr.RetireLeft(l).ok());
  EXPECT_EQ(incr.Consumed(r), 1);
  EXPECT_EQ(incr.Deficit(r), 1);  // the delivered unit does not reopen
  EXPECT_EQ(incr.TotalFlow(), 0);
  const NodeId l2 = incr.AddLeft(5);
  ASSERT_TRUE(incr.AddArc(l2, r, 5, -50).ok());
  ASSERT_TRUE(incr.Solve().ok());
  EXPECT_EQ(incr.TotalFlow(), 1);  // only the reopened unit is wanted
}

TEST(FlowIncrementalTest, WarmSolvesAreActuallyWarm) {
  IncrementalMcmfOptions options;
  options.warm_start = true;
  IncrementalMcmf incr(options);
  Rng rng(7);
  std::vector<NodeId> rights;
  for (int i = 0; i < 8; ++i) rights.push_back(incr.AddRight(3));
  // The batch-pipeline shape McfLtc uses: each round brings fresh lefts,
  // solves, then retires them (deliveries become permanent, deficits
  // shrink). No left ever carries flow into the next solve and no
  // right keeps live inflow, so the feasibility scan always passes.
  for (int batch = 0; batch < 5; ++batch) {
    std::vector<NodeId> lefts;
    for (int i = 0; i < 4; ++i) {
      const NodeId l = incr.AddLeft(2);
      lefts.push_back(l);
      for (int k = 0; k < 3; ++k) {
        const auto pick = static_cast<std::size_t>(
            rng.UniformInt(0, static_cast<std::int64_t>(rights.size()) - 1));
        ASSERT_TRUE(
            incr.AddArc(l, rights[pick], 1, WideCost(&rng)).ok());
      }
    }
    ASSERT_TRUE(incr.Solve().ok());
    for (const NodeId l : lefts) {
      ASSERT_TRUE(incr.RetireLeft(l).ok());
    }
  }
  EXPECT_EQ(incr.num_solves(), 5);
  // Only the very first solve may run cold in this pattern.
  EXPECT_LE(incr.num_cold_solves(), 1);
  EXPECT_FALSE(incr.last_solve_cold());
}

TEST(FlowIncrementalTest, WarmStartOffForcesColdEverySolve) {
  IncrementalMcmfOptions options;
  options.warm_start = false;
  IncrementalMcmf incr(options);
  const NodeId r = incr.AddRight(4);
  for (int i = 0; i < 3; ++i) {
    const NodeId l = incr.AddLeft(1);
    ASSERT_TRUE(incr.AddArc(l, r, 1, -10 * (i + 1)).ok());
    ASSERT_TRUE(incr.Solve().ok());
    EXPECT_TRUE(incr.last_solve_cold());
  }
  EXPECT_EQ(incr.num_cold_solves(), 3);
}

// --- The cold-restart triggers the delta API can reach ---

TEST(FlowIncrementalTest, NegativeReducedCostArcBetweenPricedNodesRunsCold) {
  Differential d(WarmAndCold());
  const NodeId r0 = d.AddRight(1);
  const NodeId r1 = d.AddRight(1);
  const NodeId l0 = d.AddLeft(2);
  d.AddArc(l0, r0, 1, -100);
  d.SolveAndCheck();
  const NodeId l1 = d.AddLeft(1);
  d.AddArc(l1, r1, 1, -10);
  d.SolveAndCheck();  // arcs from a pending left are priced at Solve: warm
  auto& warm = d.primary();
  EXPECT_FALSE(warm.last_solve_cold());
  // An expensive arc between priced nodes has non-negative reduced cost:
  // the duals still certify optimality, so the solve stays warm.
  d.AddArc(l0, r1, 1, 5000);
  d.SolveAndCheck();
  EXPECT_FALSE(warm.last_solve_cold());
  // A cheap one undercuts the learned duals: l0's spare unit should take r1
  // from l1, which no local repair finds — the solve restarts cold.
  d.AddArc(l0, r1, 1, -5000);
  d.SolveAndCheck();
  EXPECT_TRUE(warm.last_solve_cold());
  EXPECT_EQ(warm.TotalCost(), -5100);
}

TEST(FlowIncrementalTest, FailedFeasibilityScanRunsCold) {
  Differential d(WarmAndCold());
  const NodeId r0 = d.AddRight(1);
  const NodeId l0 = d.AddLeft(1);
  d.AddArc(l0, r0, 1, -100);
  d.SolveAndCheck();
  auto& warm = d.primary();
  ASSERT_EQ(warm.Excess(l0), 0);  // l0 carries its unit into the next solve
  // A cheaper newcomer is priced above the flow-carrying l0, so no
  // super-source price separates excess lefts from used ones: keeping l0's
  // flow would lock in a suboptimal routing, and the solve restarts cold.
  const NodeId l1 = d.AddLeft(1);
  d.AddArc(l1, r0, 1, -1000);
  d.SolveAndCheck();
  EXPECT_TRUE(warm.last_solve_cold());
  EXPECT_EQ(warm.TotalCost(), -1000);
  EXPECT_EQ(warm.Excess(l0), 1);
}

TEST(FlowIncrementalDriftDeathTest, CorruptedFlowFailsTheDriftCheck) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  IncrementalMcmfOptions options;
  options.warm_start = true;
  options.drift_check_every = 1;
  IncrementalMcmf incr(options);
  const NodeId r = incr.AddRight(3);
  const NodeId l = incr.AddLeft(1);
  // cap 2 > supply 1 leaves forward residual for the corrupting push.
  ASSERT_TRUE(incr.AddArc(l, r, 2, -100).ok());
  ASSERT_TRUE(incr.Solve().ok());  // drift check passes on the honest state
  incr.TestOnlyCorruptFlow();
  // Re-solve with no deltas: stays warm (nothing perturbs the duals), so the
  // smuggled flow unit survives to the next drift check and trips it.
  EXPECT_DEATH((void)incr.Solve(), "drifted");
}

}  // namespace
}  // namespace flow
}  // namespace ltc
