// The one experiment driver: runs any paper figure, ablation, or extension
// suite — or all of them — through exp::SweepRunner.
//
//   ./build/bench/bench_suite --list
//   ./build/bench/bench_suite --figure=fig4_scalability --threads=8
//       --reps=3 --json=results/fig4_scalability.json    (one figure)
//   ./build/bench/bench_suite --figure=all --paper --reps=30 --threads=0
//
// Schedule-dependent outputs (latency, completion, solver stats, their
// means) are bit-identical for every --threads value; only the measured
// runtime/memory fields move.

#include "exp/suite_main.h"

int main(int argc, char** argv) { return ltc::exp::SuiteMain(argc, argv); }
