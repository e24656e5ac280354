// Custom experiment suites beyond the paper's figure grid: truth-inference
// method comparison, empirical Hoeffding-bound validation, and gap-to-lower-
// bound reporting. Each drives SweepRunner::ForEachInstance for its
// (case, rep) expansion — the multi-threaded, generate-once instance sweep —
// and keeps only its measurement logic here.

#ifndef LTC_EXP_EXTENSIONS_H_
#define LTC_EXP_EXTENSIONS_H_

#include <string>

#include "common/status.h"
#include "exp/report.h"
#include "exp/sweep.h"

namespace ltc {
namespace exp {

/// Aggregation-method comparison (weighted majority vs majority vs EM) on
/// AAM-completed workloads; writes truth_methods.csv. Returns "" (no
/// standard JSON summary).
StatusOr<std::string> RunTruthSuite(const SweepOptions& sweep,
                                    const OutputOptions& output);

/// Empirical validation of the Hoeffding guarantee behind Definition 4
/// (options.trials voting rounds per task); writes
/// error_rate_validation.csv. Returns "".
StatusOr<std::string> RunErrorRateSuite(const SweepOptions& sweep,
                                        const OutputOptions& output);

/// Latency / instance-specific lower bound gap per algorithm; writes
/// lower_bound_gaps.csv. Returns "".
StatusOr<std::string> RunLowerBoundSuite(const SweepOptions& sweep,
                                         const OutputOptions& output);

}  // namespace exp
}  // namespace ltc

#endif  // LTC_EXP_EXTENSIONS_H_
