// Average And Max (paper Algorithm 3): a hybrid greedy online scheduler
// inspired by McNaughton's rule. Maintains
//   avg       = sum_t (delta - S[t]) / K   (work left per unit of capacity)
//   maxRemain = max_t (delta - S[t])       (the hardest single task)
// and switches strategy per arrival:
//   avg >= maxRemain  ->  LGF (Largest Gain First): score min(Acc*, delta-S)
//   avg <  maxRemain  ->  LRF (Largest Remaining First): score delta-S
// Competitive ratio 7.738 (paper Theorem 6).

#ifndef LTC_ALGO_AAM_H_
#define LTC_ALGO_AAM_H_

#include <memory>
#include <string>
#include <vector>

#include "algo/online_base.h"
#include "common/heap.h"

namespace ltc {
namespace algo {

/// Tuning knobs for AAM (defaults reproduce the paper's Algorithm 3; the
/// forced variants ablate the switching rule — LGF-only and LRF-only are the
/// two pure strategies AAM hybridises).
struct AamOptions {
  enum class Force { kNone, kLgfOnly, kLrfOnly };
  Force force = Force::kNone;
};

/// \brief The AAM online scheduler.
///
/// The remaining-demand aggregates are maintained incrementally (sum in O(1),
/// max via a lazy heap), so a full O(|T|) rescan per arrival — the paper's
/// lines 4-5 — is avoided; semantics are identical.
class Aam : public OnlineSchedulerBase {
 public:
  explicit Aam(AamOptions options = {}) : options_(options) {}

  std::string Name() const override {
    switch (options_.force) {
      case AamOptions::Force::kLgfOnly:
        return "LGF-only";
      case AamOptions::Force::kLrfOnly:
        return "LRF-only";
      case AamOptions::Force::kNone:
        break;
    }
    return "AAM";
  }

  /// Which strategy handled the most recent arrival (exposed for tests).
  enum class Strategy { kNone, kLgf, kLrf };
  Strategy last_strategy() const { return last_strategy_; }

  /// Snapshot protocol (DESIGN.md §11): the arrangement's records, then
  /// "x remaining_sum <sum>". The sum is stored because it is accumulated
  /// in commit order; a read derives remaining_ from the restored S and
  /// rebuilds the max tracker over it.
  Status Serialize(StateArchive& ar) override;

 protected:
  Status OnInit() override;
  Status OnTaskAddedHook(model::TaskId task) override;
  void OnTasksRetired() override;
  void SelectTasks(const model::Worker& worker,
                   const std::vector<model::TaskId>& candidates,
                   std::vector<model::TaskId>* out) override;
  void OnAssigned(model::TaskId task) override;

 private:
  AamOptions options_;
  // max(0, delta - S[t]) per resident task t, kept in sync by OnAssigned.
  // The max over them is the max over every task while any is open: only
  // closed tasks retire. The sum keeps counting retired tasks' (at most
  // kQualityTol) remainders.
  IdWindow<double> remaining_;
  double remaining_sum_ = 0.0;
  std::unique_ptr<LazyMaxTracker> max_tracker_;
  Strategy last_strategy_ = Strategy::kNone;
  // Selection scratch reused across workers: no allocation per worker.
  BoundedTopK top_{0};
  std::vector<BoundedTopK::Item> chosen_;
};

}  // namespace algo
}  // namespace ltc

#endif  // LTC_ALGO_AAM_H_
