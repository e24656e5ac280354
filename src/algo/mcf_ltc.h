// MCF-LTC (paper Algorithm 1): the minimum-cost-flow based offline scheduler
// with approximation ratio 7.5 (paper Theorem 3).
//
// Workers are consumed in Theorem-2 batches (m = |T| * ceil(delta) / K, the
// first batch 1.5x); each batch is matched against the still-open tasks by
// one min-cost max-flow, then workers with spare capacity greedily top up
// the most reliable open tasks. The batch loop itself lives in one place,
// algo::McfStream (algo/mcf_stream.h), which also serves
// `ltc_serve --algo=MCF`: Run drives it with algo::DriveOnline, the online
// driver every scheduler shares, which feeds it every worker in arrival
// order, with its eligible tasks from the index, until every task reached
// delta.

#ifndef LTC_ALGO_MCF_LTC_H_
#define LTC_ALGO_MCF_LTC_H_

#include <string>

#include "algo/scheduler.h"

namespace ltc {
namespace algo {

/// Tuning knobs of MCF-LTC (defaults reproduce the paper; the ablation bench
/// sweeps them).
struct McfLtcOptions {
  /// Prefer earlier-arriving workers among equal-cost flow optima by adding
  /// an infinitesimal arrival-position penalty to arc costs. The MCF
  /// objective itself cannot see indices; without this, equal-cost optima
  /// may pick late workers and inflate latency arbitrarily (DESIGN.md).
  bool index_tie_break = true;
  /// Multiplier applied to the batch size m (1.0 = paper). The paper's own
  /// evaluation (Sec. V-B1) attributes MCF-LTC's losses to batch size, which
  /// this knob exposes for ablation.
  double batch_factor = 1.0;
  /// First batch is this multiple of m (paper: 1.5).
  double first_batch_factor = 1.5;
  /// Carry flow, node potentials, and the patched CSR network across batches
  /// through flow::IncrementalMcmf instead of rebuilding and re-pricing the
  /// whole bipartite problem per batch. Each batch adds its workers as fresh
  /// supply nodes, updates task demands in place, solves, then retires the
  /// workers with their deliveries frozen — so every batch solve starts from
  /// already-consistent prices and augments only for the new supply. False
  /// forces an exact from-scratch restart per batch (the ablation baseline
  /// of fig4_warmstart and ablation_mcf_variants; the service always runs
  /// warm).
  bool warm_start = true;
  /// Every Nth batch solve is cross-checked against an independent
  /// from-scratch reference solve and CHECK-fails on divergence (see
  /// IncrementalMcmfOptions::drift_check_every). 0 disables.
  int drift_check_every = 0;
};

/// \brief The MCF-LTC offline scheduler.
class McfLtc : public OfflineScheduler {
 public:
  explicit McfLtc(McfLtcOptions options = {}) : options_(options) {}

  std::string Name() const override { return "MCF-LTC"; }

  StatusOr<ScheduleResult> Run(const model::ProblemInstance& instance,
                               const model::EligibilityIndex& index) override;

  const McfLtcOptions& options() const { return options_; }

 private:
  McfLtcOptions options_;
};

}  // namespace algo
}  // namespace ltc

#endif  // LTC_ALGO_MCF_LTC_H_
