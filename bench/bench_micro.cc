// google-benchmark micro suite for the performance-critical substrates:
// the min-cost-flow solver, the grid spatial index, eligibility queries, and a
// single online-arrival step of LAF/AAM.
//
// Run:  ./build/bench/bench_micro [--benchmark_filter=...]

#include <benchmark/benchmark.h>

#include <memory>
#include <vector>

#include "algo/aam.h"
#include "algo/laf.h"
#include "common/random.h"
#include "flow/graph.h"
#include "flow/min_cost_flow.h"
#include "gen/synthetic.h"
#include "geo/grid_index.h"
#include "model/eligibility.h"

namespace {

using ltc::Rng;

/// Builds an LTC-shaped bipartite flow network: st -> W workers -> T tasks
/// -> ed, with ~degree random eligible arcs per worker.
ltc::flow::FlowNetwork BuildBipartite(int workers, int tasks, int degree,
                                      std::uint64_t seed) {
  Rng rng(seed);
  ltc::flow::FlowNetworkBuilder b(
      static_cast<ltc::flow::NodeId>(2 + workers + tasks));
  for (int w = 0; w < workers; ++w) {
    b.AddArc(0, static_cast<ltc::flow::NodeId>(2 + w), 6, 0)
        .status()
        .CheckOK();
    for (int d = 0; d < degree; ++d) {
      const auto t = static_cast<int>(rng.UniformInt(0, tasks - 1));
      b.AddArc(static_cast<ltc::flow::NodeId>(2 + w),
               static_cast<ltc::flow::NodeId>(2 + workers + t), 1,
               -rng.UniformInt(100000, 1000000))
          .status()
          .CheckOK();
    }
  }
  for (int t = 0; t < tasks; ++t) {
    b.AddArc(static_cast<ltc::flow::NodeId>(2 + workers + t), 1, 5, 0)
        .status()
        .CheckOK();
  }
  ltc::flow::FlowNetwork net;
  b.Build(&net);
  return net;
}

void BM_SspMinCostMaxFlow(benchmark::State& state) {
  const int workers = static_cast<int>(state.range(0));
  const int tasks = workers / 2;
  // Worker->task costs lie in [-1e6, -1e5]; tasks start at 2 + workers.
  const auto right_begin = static_cast<ltc::flow::NodeId>(2 + workers);
  const ltc::flow::LayeredSeed seed{right_begin, -1000000};
  for (auto _ : state) {
    state.PauseTiming();
    auto net = BuildBipartite(workers, tasks, 8, 42);
    state.ResumeTiming();
    auto result = ltc::flow::SspMinCostMaxFlow(&net, 0, 1, seed);
    result.status().CheckOK();
    benchmark::DoNotOptimize(result->cost);
  }
}
BENCHMARK(BM_SspMinCostMaxFlow)->Arg(64)->Arg(256)->Arg(1024);

std::vector<ltc::geo::Point> RandomPoints(int n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<ltc::geo::Point> points;
  points.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    points.push_back({rng.Uniform(0, 1000), rng.Uniform(0, 1000)});
  }
  return points;
}

void BM_GridIndexBuild(benchmark::State& state) {
  const auto points = RandomPoints(static_cast<int>(state.range(0)), 7);
  for (auto _ : state) {
    auto index = ltc::geo::GridIndex::Build(points, 30.0);
    index.status().CheckOK();
    benchmark::DoNotOptimize(index->size());
  }
}
BENCHMARK(BM_GridIndexBuild)->Arg(1000)->Arg(10000)->Arg(100000);

void BM_GridIndexQueryRadius(benchmark::State& state) {
  const auto points = RandomPoints(static_cast<int>(state.range(0)), 7);
  auto index = ltc::geo::GridIndex::Build(points, 30.0);
  index.status().CheckOK();
  Rng rng(13);
  std::vector<std::int64_t> out;
  for (auto _ : state) {
    index->QueryRadius({rng.Uniform(0, 1000), rng.Uniform(0, 1000)}, 30.0,
                       &out);
    benchmark::DoNotOptimize(out.size());
  }
}
BENCHMARK(BM_GridIndexQueryRadius)->Arg(10000)->Arg(100000);

struct OnlineFixture {
  ltc::model::ProblemInstance instance;
  std::unique_ptr<ltc::model::EligibilityIndex> index;

  static OnlineFixture Make(std::int64_t tasks, std::int64_t workers) {
    ltc::gen::SyntheticConfig cfg;
    cfg.num_tasks = tasks;
    cfg.num_workers = workers;
    cfg.grid_side = 316.0;
    cfg.seed = 21;
    auto instance = ltc::gen::GenerateSynthetic(cfg);
    instance.status().CheckOK();
    OnlineFixture f{std::move(instance).value(), nullptr};
    auto index = ltc::model::EligibilityIndex::Build(&f.instance);
    index.status().CheckOK();
    f.index = std::make_unique<ltc::model::EligibilityIndex>(
        std::move(index).value());
    return f;
  }
};

template <typename Scheduler>
void RunOnlinePass(benchmark::State& state, std::int64_t tasks) {
  OnlineFixture f = OnlineFixture::Make(tasks, 4000);
  for (auto _ : state) {
    Scheduler scheduler;
    auto arrivals = ltc::algo::DriveOnline(f.instance, *f.index, &scheduler);
    arrivals.status().CheckOK();
    benchmark::DoNotOptimize(*arrivals);
  }
  state.SetItemsProcessed(state.iterations() * 4000);
}

void BM_LafFullStream(benchmark::State& state) {
  RunOnlinePass<ltc::algo::Laf>(state, state.range(0));
}
BENCHMARK(BM_LafFullStream)->Arg(100)->Arg(400);

void BM_AamFullStream(benchmark::State& state) {
  RunOnlinePass<ltc::algo::Aam>(state, state.range(0));
}
BENCHMARK(BM_AamFullStream)->Arg(100)->Arg(400);

void BM_EligibilityQuery(benchmark::State& state) {
  OnlineFixture f = OnlineFixture::Make(state.range(0), 4000);
  std::vector<ltc::model::TaskId> out;
  std::size_t cursor = 0;
  for (auto _ : state) {
    const auto& w =
        f.instance.worker(static_cast<ltc::model::WorkerIndex>(cursor + 1));
    f.index->EligibleTasks(w, &out);
    benchmark::DoNotOptimize(out.size());
    cursor = (cursor + 1) % f.instance.workers.size();
  }
}
BENCHMARK(BM_EligibilityQuery)->Arg(100)->Arg(1000);

}  // namespace

BENCHMARK_MAIN();
