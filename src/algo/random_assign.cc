#include "algo/random_assign.h"

#include <algorithm>

namespace ltc {
namespace algo {

void RandomAssign::SelectTasks(const model::Worker& worker,
                               const std::vector<model::TaskId>& candidates,
                               std::vector<model::TaskId>* out) {
  (void)worker;
  const auto k = static_cast<std::size_t>(capacity());
  if (candidates.size() <= k) {
    out->insert(out->end(), candidates.begin(), candidates.end());
    return;
  }
  // Partial Fisher-Yates: draw K distinct tasks uniformly.
  pool_ = candidates;
  for (std::size_t i = 0; i < k; ++i) {
    const auto j = static_cast<std::size_t>(rng_.UniformInt(
        static_cast<std::int64_t>(i), static_cast<std::int64_t>(pool_.size()) - 1));
    std::swap(pool_[i], pool_[j]);
    out->push_back(pool_[i]);
  }
}

Status RandomAssign::Serialize(StateArchive& ar) {
  LTC_RETURN_IF_ERROR(OnlineScheduler::Serialize(ar));
  Rng::State s = rng_.SaveState();
  LTC_RETURN_IF_ERROR(ar.Record("x rng", Word{&s.s[0]}, Word{&s.s[1]},
                                Word{&s.s[2]}, Word{&s.s[3]},
                                Real(&s.cached_gaussian),
                                Bit(&s.has_cached_gaussian)));
  if (ar.reading()) {
    // All-zero is xoshiro's fixed point: the generator would emit 0 forever.
    if ((s.s[0] | s.s[1] | s.s[2] | s.s[3]) == 0) {
      return Status::InvalidArgument("Random: all-zero rng state");
    }
    rng_.RestoreState(s);
  }
  return Status::OK();
}

}  // namespace algo
}  // namespace ltc
