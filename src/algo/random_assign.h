// Random: the paper's naive online baseline — "tasks nearby are assigned
// randomly to the worker when s/he arrives on the platform" (Sec. V-A).

#ifndef LTC_ALGO_RANDOM_ASSIGN_H_
#define LTC_ALGO_RANDOM_ASSIGN_H_

#include <cstdint>
#include <string>
#include <vector>

#include "algo/online_base.h"
#include "common/random.h"

namespace ltc {
namespace algo {

/// \brief Picks up to K eligible nearby tasks uniformly at random (without
/// replacement). Deterministic for a fixed seed.
///
/// Faithful to the paper's description ("a naive online baseline algorithm
/// where tasks nearby are assigned randomly"), Random never inspects the
/// quality state: unlike LAF/AAM it keeps spending capacity on offered
/// tasks that already reached delta, which is exactly why it trails them in
/// Fig. 3/4. Only a task an earlier commit of the same call completed is
/// skipped, so the service, which offers open tasks only, never re-serves
/// a finished task (DESIGN.md §8).
class RandomAssign : public OnlineSchedulerBase {
 public:
  explicit RandomAssign(std::uint64_t seed = 42) : seed_(seed), rng_(seed) {}

  std::string Name() const override { return "Random"; }

  /// Snapshot: the arrangement, then the generator state verbatim ("x rng
  /// <s0> <s1> <s2> <s3> <cached_gaussian> <has_cached>"): the draws consumed
  /// are not derivable from the arrangement (small candidate sets skip it).
  Status Serialize(StateArchive& ar) override;

 protected:
  Status OnInit() override {
    // Per-shard decorrelation (DESIGN.md §9): each spatial shard of the
    // sharded service draws an independent deterministic stream. Shard 0 —
    // and therefore every DriveOnline or unsharded streaming run — mixes
    // with 0, i.e. keeps the historical Rng(seed) stream bit for bit.
    rng_ = Rng(seed_ ^ (0x9E3779B97F4A7C15ULL *
                        static_cast<std::uint64_t>(
                            shard_context().shard_id)));
    return Status::OK();
  }

  bool FilterCompleted() const override { return false; }

  void SelectTasks(const model::Worker& worker,
                   const std::vector<model::TaskId>& candidates,
                   std::vector<model::TaskId>* out) override;

 private:
  std::uint64_t seed_;
  Rng rng_;
  std::vector<model::TaskId> pool_;
};

}  // namespace algo
}  // namespace ltc

#endif  // LTC_ALGO_RANDOM_ASSIGN_H_
