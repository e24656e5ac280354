#include "algo/laf.h"

namespace ltc {
namespace algo {

void Laf::SelectTasks(const model::Worker& worker,
                      const std::vector<model::TaskId>& candidates,
                      std::vector<model::TaskId>* out) {
  // Algorithm 2 lines 4-7: keep the K largest Acc* in a bounded heap.
  top_.Reset(static_cast<std::size_t>(capacity()));
  for (model::TaskId t : candidates) {
    top_.Push(instance().AccStar(worker.index, t), t);
  }
  // Lines 8-10: extract and assign. Descending order is the paper's heap
  // extraction order; assignment order does not affect the outcome here.
  top_.TakeDescending(&chosen_);
  for (const auto& item : chosen_) {
    out->push_back(static_cast<model::TaskId>(item.id));
  }
}

}  // namespace algo
}  // namespace ltc
