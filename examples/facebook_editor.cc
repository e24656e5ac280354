// The paper's running example (Sec. I, Examples 1-4): a Facebook-Editor-like
// platform with three POI questions and eight check-in workers.
//
// Reproduces Table I, and runs every algorithm on the instance, printing the
// arrangement each one produces and its latency (paper: MCF-LTC = 6, AAM = 7,
// LAF = 8; see EXPERIMENTS.md for a discussion of the AAM trace).
//
// Build & run:  ./build/examples/facebook_editor [--epsilon=0.2]

#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "algo/exhaustive.h"
#include "algo/registry.h"
#include "common/flags.h"
#include "common/status.h"
#include "common/string_util.h"
#include "common/table.h"
#include "gen/example_paper.h"
#include "model/eligibility.h"
#include "sim/engine.h"

namespace {

ltc::Flag<double> FLAG_epsilon("epsilon", 0.2,
                               "tolerable error rate (paper Example 2: 0.2)");

std::string DescribeAssignments(const ltc::model::Arrangement& arr,
                                ltc::model::WorkerIndex worker) {
  std::vector<std::string> tasks;
  for (const auto& a : arr.assignments()) {
    if (a.worker == worker) {
      tasks.push_back(ltc::StrFormat("t%d", a.task + 1));
    }
  }
  return tasks.empty() ? "-" : ltc::Join(tasks, ",");
}

int RealMain(int argc, char** argv) {
  if (auto s = ltc::ParseCommandLine(argc, argv); !s.ok()) {
    std::fprintf(stderr, "%s\n", s.ToString().c_str());
    return 1;
  }

  auto instance_or = ltc::gen::PaperExampleInstance(FLAG_epsilon.Get());
  instance_or.status().CheckOK();
  const ltc::model::ProblemInstance& instance = instance_or.value();
  std::printf("Instance: %s\n\n", instance.Summary().c_str());

  // ---- Table I ----
  ltc::TablePrinter table_one(
      {"", "w1", "w2", "w3", "w4", "w5", "w6", "w7", "w8"});
  for (int t = 0; t < 3; ++t) {
    std::vector<std::string> row = {ltc::StrFormat("t%d", t + 1)};
    for (int w = 0; w < 8; ++w) {
      row.push_back(
          ltc::StrFormat("%.2f", ltc::gen::kPaperExampleAccuracy[w][t]));
    }
    table_one.AddRow(row);
  }
  std::printf("Table I — historical accuracy between tasks and workers:\n%s\n",
              table_one.Render().c_str());

  auto index_or = ltc::model::EligibilityIndex::Build(&instance);
  index_or.status().CheckOK();
  const auto& index = index_or.value();

  // ---- All algorithms + the exhaustive optimum ----
  std::vector<std::string> algorithms = ltc::algo::StandardAlgorithms();
  algorithms.push_back("Exhaustive");

  ltc::TablePrinter summary({"algorithm", "latency", "completed",
                             "assignments", "total Acc*"});
  for (const std::string& name : algorithms) {
    auto metrics_or = ltc::sim::RunAlgorithm(name, instance, index);
    if (!metrics_or.ok()) {
      std::fprintf(stderr, "%s failed: %s\n", name.c_str(),
                   metrics_or.status().ToString().c_str());
      return 1;
    }
    const auto& m = metrics_or.value();
    summary.AddRow({name, ltc::TablePrinter::Cell(m.latency),
                    m.completed ? "yes" : "no",
                    ltc::TablePrinter::Cell(m.stats.assignments),
                    ltc::TablePrinter::Cell(m.stats.total_acc_star, 3)});
  }
  std::printf("Algorithm comparison (delta = %.3f):\n%s\n", instance.Delta(),
              summary.Render().c_str());

  // ---- Per-worker arrangement trace for the online algorithms ----
  for (const char* name : {"LAF", "AAM"}) {
    auto scheduler_or = ltc::algo::MakeOnlineScheduler(name, /*seed=*/1);
    scheduler_or.status().CheckOK();
    auto& scheduler = *scheduler_or.value();
    auto workers_seen = ltc::algo::DriveOnline(instance, index, &scheduler);
    workers_seen.status().CheckOK();
    std::printf("%s arrangement:\n", name);
    for (ltc::model::WorkerIndex w = 1; w <= *workers_seen; ++w) {
      std::printf("  w%d -> %s\n", w,
                  DescribeAssignments(scheduler.arrangement(), w).c_str());
    }
    std::printf("  latency: %d, S = [", scheduler.arrangement().MaxWorkerIndex());
    for (int t = 0; t < 3; ++t) {
      std::printf("%s%.3f", t ? ", " : "", scheduler.arrangement().accumulated(t));
    }
    std::printf("]\n\n");
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) { return RealMain(argc, argv); }
