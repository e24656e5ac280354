// Eligibility queries: "which tasks may this worker perform?"
//
// Every LTC algorithm enumerates, per arriving worker, the tasks with
// Acc(w,t) >= acc_min. For distance-attenuated accuracy models the index
// answers this with a grid-index radius query routed through the model's
// geo::Metric (the radius comes from AccuracyFunction::EligibleRadius);
// otherwise it degrades to a filtered scan over all tasks, which matches
// the paper's O(|T|) per-arrival loops.

#ifndef LTC_MODEL_ELIGIBILITY_H_
#define LTC_MODEL_ELIGIBILITY_H_

#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "common/status.h"
#include "geo/grid_index.h"
#include "geo/metric.h"
#include "model/problem.h"

namespace ltc {
namespace model {

/// Cell size for a spatial-pruning grid over task locations under
/// `accuracy`: the perfect-accuracy worker's eligible radius (every
/// worker's radius is bounded by it), floored at 1 so radius queries stay
/// within a 3x3 cell block even for degenerate radii. nullopt when the
/// model has no distance structure (callers fall back to scans). Shared by
/// EligibilityIndex::Build and svc::ShardedStreamEngine so the batch and
/// streaming grids always agree on geometry.
std::optional<double> SpatialPruningCellSize(const AccuracyFunction& accuracy,
                                             double acc_min);

/// The streaming grids' cell size — SpatialPruningCellSize resolved with
/// the non-distance-model fallback the service uses: one cell per shard
/// stripe across a world of width `world_width`, floored at 1.
/// svc::ShardedStreamEngine derives its shard-map geometry through this
/// one helper at every shard count, so batch and streaming (and single-
/// and multi-shard) grids cannot disagree.
double StreamingCellSize(const AccuracyFunction& accuracy, double acc_min,
                         double world_width, int shards);

/// \brief Precomputed spatial index over an instance's task locations.
///
/// Thread-compatible: concurrent const use is safe; callers own their output
/// buffers.
class EligibilityIndex {
 public:
  /// Builds the index. The instance must outlive the index.
  static StatusOr<EligibilityIndex> Build(const ProblemInstance* instance);

  /// The visitor-based core under every query below: invokes fn(task_id)
  /// for each task eligible for `w`.
  ///
  /// Ordering contract (stated once, here): the spatially-pruned path
  /// emits the grid's cell order — ascending ids within a cell,
  /// unspecified across cells — under *every* metric backend
  /// (geo::Metric::EligibleWithin preserves grid order); the scan path
  /// emits ascending ids. Callers that need global ascending order use
  /// EligibleTasksSorted, which sorts exactly when the grid path ran.
  template <typename Fn>
  void ForEachEligible(const Worker& w, Fn&& fn) const {
    const auto radius = QueryRadius(w);
    if (radius.has_value()) {
      if (*radius < 0.0) return;  // empty disk: nothing in reach
      auto check = [&](std::int64_t id) {
        const auto t = static_cast<TaskId>(id);
        // The radius is exact for distance-monotone models, but re-check so
        // that approximate EligibleRadius implementations stay safe.
        if (instance_->Eligible(w.index, t)) fn(t);
      };
      const geo::Metric& metric = *instance_->accuracy->DistanceMetric();
      if (metric.euclidean()) {
        // Fast path: the templated grid visitor, no std::function hop.
        grid_->ForEachInRadius(w.location, *radius, check);
      } else {
        metric.EligibleWithin(*grid_, w.location, *radius, check);
      }
      return;
    }
    for (const Task& t : instance_->tasks) {
      if (instance_->Eligible(w.index, t.id)) fn(t.id);
    }
  }

  /// Fills *out (cleared first) with ids of all tasks eligible for `w`, in
  /// ForEachEligible's (unspecified) order. Callers that binary-search or
  /// otherwise rely on ordering must use EligibleTasksSorted.
  void EligibleTasks(const Worker& w, std::vector<TaskId>* out) const;

  /// Like EligibleTasks but guarantees ascending id order — the contract
  /// MCF-LTC's batch bookkeeping depends on.
  void EligibleTasksSorted(const Worker& w, std::vector<TaskId>* out) const;

  /// True when spatial pruning is in effect (vs. full scans).
  bool spatial() const { return grid_.has_value(); }

  const ProblemInstance& instance() const { return *instance_; }

 private:
  explicit EligibilityIndex(const ProblemInstance* instance)
      : instance_(instance) {}

  /// Per-worker pruning radius, or nullopt when scanning.
  std::optional<double> QueryRadius(const Worker& w) const;

  const ProblemInstance* instance_;
  std::optional<geo::GridIndex> grid_;
};

}  // namespace model
}  // namespace ltc

#endif  // LTC_MODEL_ELIGIBILITY_H_
