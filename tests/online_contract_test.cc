// Contract tests for the OnlineScheduler protocol, run against every online
// algorithm in the registry, the streaming MCF included: initialisation
// discipline, the DriveOnline driver, per-worker capacity, irrevocability,
// termination behaviour, and re-initialisation.

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "algo/registry.h"
#include "gen/synthetic.h"
#include "model/eligibility.h"

namespace ltc {
namespace algo {
namespace {

using Commits = std::vector<OnlineScheduler::StreamCommit>;

const char* kOnlineAlgorithms[] = {"LAF",      "AAM",      "Random",
                                   "LGF-only", "LRF-only", "MCF"};

struct Built {
  model::ProblemInstance instance;
  std::unique_ptr<model::EligibilityIndex> index;
};

Built BuildSmall(std::uint64_t seed = 4) {
  gen::SyntheticConfig cfg;
  cfg.num_tasks = 10;
  cfg.num_workers = 600;
  cfg.grid_side = 100.0;
  cfg.capacity = 3;
  cfg.seed = seed;
  auto instance = gen::GenerateSynthetic(cfg);
  instance.status().CheckOK();
  Built b{std::move(instance).value(), nullptr};
  auto index = model::EligibilityIndex::Build(&b.instance);
  index.status().CheckOK();
  b.index =
      std::make_unique<model::EligibilityIndex>(std::move(index).value());
  return b;
}

/// Commits worker `i` (0-based) alone, with every eligible task as its
/// candidates — one step of DriveOnline's loop.
Commits CommitOne(OnlineScheduler* scheduler, const Built& b, std::size_t i) {
  const model::Worker& w =
      b.instance.worker(static_cast<model::WorkerIndex>(i + 1));
  std::vector<model::TaskId> eligible;
  b.index->EligibleTasksSorted(w, &eligible);
  Commits commits;
  scheduler->OnBatchWithCandidates({w.index}, {&eligible}, &commits)
      .CheckOK();
  return commits;
}

/// Per-worker heuristics commit only the worker of the call; MCF may also
/// commit workers it buffered from earlier calls.
bool CommitsOnlyCallWorker(const std::string& name) { return name != "MCF"; }

class OnlineContractTest : public ::testing::TestWithParam<const char*> {};

TEST_P(OnlineContractTest, CallsBeforeInitStreamingFail) {
  auto scheduler = MakeOnlineScheduler(GetParam(), 1);
  ASSERT_TRUE(scheduler.ok());
  EXPECT_FALSE((*scheduler)->Done());
  Commits commits;
  EXPECT_TRUE((*scheduler)
                  ->OnBatchWithCandidates({}, {}, &commits)
                  .IsFailedPrecondition());
  EXPECT_TRUE((*scheduler)->OnTaskAdded(0).IsFailedPrecondition());
  std::string blob;
  StateArchive writer = StateArchive::Writer(&blob);
  EXPECT_TRUE((*scheduler)->Serialize(writer).IsFailedPrecondition());
}

TEST_P(OnlineContractTest, DriveOnlineRejectsMismatchedIndex) {
  Built a = BuildSmall(1);
  Built b = BuildSmall(2);
  auto scheduler = MakeOnlineScheduler(GetParam(), 1);
  ASSERT_TRUE(scheduler.ok());
  EXPECT_TRUE(DriveOnline(a.instance, *b.index, scheduler->get())
                  .status()
                  .IsInvalidArgument());
}

TEST_P(OnlineContractTest, PerWorkerCapacityRespected) {
  Built b = BuildSmall();
  auto scheduler = MakeOnlineScheduler(GetParam(), 1);
  ASSERT_TRUE(scheduler.ok());
  ASSERT_TRUE(DriveOnline(b.instance, *b.index, scheduler->get()).ok());
  std::map<model::WorkerIndex, std::int64_t> load;
  std::set<std::pair<model::WorkerIndex, model::TaskId>> pairs;
  for (const model::Assignment& a : (*scheduler)->arrangement().assignments()) {
    EXPECT_LE(++load[a.worker], b.instance.capacity) << GetParam();
    // No worker is given the same task twice.
    EXPECT_TRUE(pairs.insert({a.worker, a.task}).second) << GetParam();
  }
}

TEST_P(OnlineContractTest, ArrangementIsAppendOnly) {
  Built b = BuildSmall();
  auto scheduler = MakeOnlineScheduler(GetParam(), 1);
  ASSERT_TRUE(scheduler.ok());
  (*scheduler)->InitStreaming(b.instance).CheckOK();
  std::vector<model::Assignment> before;
  for (std::size_t i = 0; i < b.instance.workers.size(); ++i) {
    if ((*scheduler)->Done()) break;
    const Commits commits = CommitOne(scheduler->get(), b, i);
    const auto& after = (*scheduler)->arrangement().assignments();
    // The earlier assignments are untouched; the call appended exactly its
    // reported commits, in commit order.
    ASSERT_EQ(after.size(), before.size() + commits.size()) << GetParam();
    for (std::size_t k = 0; k < before.size(); ++k) {
      EXPECT_EQ(after[k].worker, before[k].worker) << GetParam();
      EXPECT_EQ(after[k].task, before[k].task) << GetParam();
    }
    for (std::size_t k = 0; k < commits.size(); ++k) {
      const model::Assignment& a = after[before.size() + k];
      EXPECT_EQ(a.worker, commits[k].worker) << GetParam();
      EXPECT_EQ(a.task, commits[k].task) << GetParam();
      EXPECT_LE(a.worker, static_cast<model::WorkerIndex>(i + 1)) << GetParam();
      if (CommitsOnlyCallWorker(GetParam())) {
        EXPECT_EQ(a.worker, static_cast<model::WorkerIndex>(i + 1))
            << GetParam();
      }
    }
    before = after;
  }
}

TEST_P(OnlineContractTest, NoAssignmentsAfterDone) {
  Built b = BuildSmall();
  auto scheduler = MakeOnlineScheduler(GetParam(), 1);
  ASSERT_TRUE(scheduler.ok());
  (*scheduler)->InitStreaming(b.instance).CheckOK();
  std::size_t i = 0;
  for (; i < b.instance.workers.size(); ++i) {
    if ((*scheduler)->Done()) break;
    CommitOne(scheduler->get(), b, i);
  }
  if (!(*scheduler)->Done()) GTEST_SKIP() << "stream exhausted first";
  const std::int64_t size_at_done = (*scheduler)->arrangement().size();
  // Feeding more workers after completion, and ending the stream, must
  // commit nothing.
  for (std::size_t extra = i;
       extra < b.instance.workers.size() && extra < i + 5; ++extra) {
    EXPECT_TRUE(CommitOne(scheduler->get(), b, extra).empty()) << GetParam();
  }
  Commits end;
  (*scheduler)->OnStreamEnd(&end).CheckOK();
  EXPECT_TRUE(end.empty()) << GetParam();
  EXPECT_EQ((*scheduler)->arrangement().size(), size_at_done) << GetParam();
}

TEST_P(OnlineContractTest, ReInitResetsState) {
  Built b = BuildSmall();
  auto scheduler = MakeOnlineScheduler(GetParam(), 1);
  ASSERT_TRUE(scheduler.ok());
  auto run_once = [&]() {
    DriveOnline(b.instance, *b.index, scheduler->get()).status().CheckOK();
    std::vector<std::pair<model::WorkerIndex, model::TaskId>> out;
    for (const model::Assignment& a :
         (*scheduler)->arrangement().assignments()) {
      out.emplace_back(a.worker, a.task);
    }
    return out;
  };
  const auto first = run_once();
  const auto second = run_once();
  EXPECT_FALSE(first.empty()) << GetParam();
  EXPECT_EQ(first, second) << GetParam() << " must reset on InitStreaming";
}

INSTANTIATE_TEST_SUITE_P(Roster, OnlineContractTest,
                         ::testing::ValuesIn(kOnlineAlgorithms));

}  // namespace
}  // namespace algo
}  // namespace ltc
