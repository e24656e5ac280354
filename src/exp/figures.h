// Declarative registry of every runnable experiment suite: the eight paper
// figure sweeps (expanded from sim::PaperFigureIndex()'s factor presets),
// the ablation suites, and the extension experiments. bench_suite — and the
// thin per-figure bench wrappers — run suites by label through this
// registry; nothing outside src/exp hand-rolls a sweep loop anymore.

#ifndef LTC_EXP_FIGURES_H_
#define LTC_EXP_FIGURES_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/status.h"
#include "exp/report.h"
#include "exp/sweep.h"
#include "gen/synthetic.h"

namespace ltc {
namespace exp {

/// The factor scale: 1.0 at --paper, the 1/10 laptop scale otherwise.
double SuiteScale(bool paper_scale);

/// Scales a paper-level count (at least 1).
std::int64_t ScaledCount(std::int64_t paper_value, double scale);

/// Table IV's bold default factors at the given scale: counts scale
/// linearly, the grid side by sqrt(scale) so worker/task densities — which
/// drive feasibility and eligibility degrees — match the paper's setup.
gen::SyntheticConfig BaseSyntheticConfig(bool paper_scale);

/// One runnable experiment, addressable as `bench_suite --figure=<label>`.
struct SuiteDef {
  /// Registry key and output file stem (sim::FigureSpec::suite_label for
  /// the paper figures).
  std::string label;
  /// Paper panel ids ("3a/3e/3i"); empty for ablation/extension suites.
  std::string paper_figures;
  /// One-line description for `bench_suite --list`.
  std::string title;
  /// Metric suites: builds the declarative case × algorithm grid. Null for
  /// custom suites that drive the SweepRunner themselves.
  std::function<Suite(bool paper_scale)> make;
  /// Custom suites: runs the whole experiment and returns its JSON summary
  /// object ("" when the suite has no standard summary). Null for plain
  /// metric suites.
  std::function<StatusOr<std::string>(const SweepOptions&,
                                      const OutputOptions&)>
      run;
};

/// Every suite, paper figures first. Labels are unique; the figure suites
/// track sim::PaperFigureIndex() (exp_sweep_test pins the two together).
const std::vector<SuiteDef>& SuiteRegistry();

/// Lookup by label; nullptr when unknown.
const SuiteDef* FindSuite(const std::string& label);

/// All registry labels, in registry order.
std::vector<std::string> SuiteLabels();

/// Runs one suite end-to-end — sweep, tables, CSVs — and returns its JSON
/// summary object ("" for suites without one). The caller owns writing the
/// JSON file (SuiteMain wraps multi-suite runs).
StatusOr<std::string> RunSuite(const SuiteDef& def, const SweepOptions& sweep,
                               const OutputOptions& output);

}  // namespace exp
}  // namespace ltc

#endif  // LTC_EXP_FIGURES_H_
