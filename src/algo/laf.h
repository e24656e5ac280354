// Largest Acc First (paper Algorithm 2): for every arriving worker, assign
// the K uncompleted eligible tasks with the largest Acc*(w, t), via a
// size-bounded heap. Competitive ratio 7.967 (paper Theorem 5).

#ifndef LTC_ALGO_LAF_H_
#define LTC_ALGO_LAF_H_

#include <string>
#include <vector>

#include "algo/online_base.h"
#include "common/heap.h"

namespace ltc {
namespace algo {

/// \brief The LAF online scheduler.
///
/// Tie-breaking: equal Acc* prefers the lower task id, matching the paper's
/// Example 3 trace (w1 takes {t2, t1} when t1 and t3 tie).
class Laf : public OnlineSchedulerBase {
 public:
  Laf() = default;

  std::string Name() const override { return "LAF"; }

 protected:
  void SelectTasks(const model::Worker& worker,
                   const std::vector<model::TaskId>& candidates,
                   std::vector<model::TaskId>* out) override;

 private:
  // Selection scratch reused across workers: no allocation per worker.
  BoundedTopK top_{0};
  std::vector<BoundedTopK::Item> chosen_;
};

}  // namespace algo
}  // namespace ltc

#endif  // LTC_ALGO_LAF_H_
