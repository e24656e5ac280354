// The main() behind the bench_suite driver. Parses the experiment flags
// (--figure/--threads/--reps/--seed/--paper/--skip/--cases/--out_dir/--json/
// --trials/--list), resolves suite labels through the exp registry, runs
// them, and assembles the JSON summary file.

#ifndef LTC_EXP_SUITE_MAIN_H_
#define LTC_EXP_SUITE_MAIN_H_

namespace ltc {
namespace exp {

/// Runs the suites named by --figure (comma-separated labels, or "all").
/// Returns the process exit code.
int SuiteMain(int argc, char** argv);

}  // namespace exp
}  // namespace ltc

#endif  // LTC_EXP_SUITE_MAIN_H_
