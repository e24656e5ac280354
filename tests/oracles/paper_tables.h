// Test oracles: the paper's own tables, which tests compare the library
// against. Theorem 2's latency bounds check every algorithm's arrangement;
// the figure index (DESIGN.md §4) checks that bench_suite's registry
// regenerates every evaluation figure from Table IV/V's presets.

#ifndef LTC_ORACLES_PAPER_TABLES_H_
#define LTC_ORACLES_PAPER_TABLES_H_

#include <cstdint>
#include <string>
#include <vector>

namespace ltc {
namespace model {

/// Theorem 2 bounds of the optimal maximum latency, assuming |T| >= K:
///   lower = |T| * delta / K
///   upper = 10 |T| delta / K + |T| / K + 1
struct LatencyBounds {
  double lower = 0.0;
  double upper = 0.0;
};
LatencyBounds TheoremTwoBounds(std::int64_t num_tasks, double delta,
                               std::int64_t capacity);

}  // namespace model

namespace sim {

/// One evaluation figure of the paper and how to regenerate it.
struct FigureSpec {
  /// Paper ids, e.g. "3a/3e/3i" (latency/runtime/memory share a sweep).
  std::string paper_figures;
  /// The varied factor ("\|T\|", "K", "mu", "mean", "eps").
  std::string factor;
  /// Factor levels rendered as bench_suite prints them.
  std::vector<std::string> levels;
  /// The suite that regenerates it: `bench_suite --figure=<suite_label>`.
  std::string suite_label;
};

/// The complete per-experiment index (DESIGN.md §4), in paper order, with
/// the levels of sim/presets.h.
std::vector<FigureSpec> PaperFigureIndex();

}  // namespace sim
}  // namespace ltc

#endif  // LTC_ORACLES_PAPER_TABLES_H_
