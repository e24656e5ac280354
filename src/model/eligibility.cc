#include "model/eligibility.h"

#include <algorithm>

namespace ltc {
namespace model {

std::optional<double> SpatialPruningCellSize(const AccuracyFunction& accuracy,
                                             double acc_min) {
  // Decide whether the accuracy model supports spatial pruning: probe with a
  // perfect-accuracy worker (any worker's radius is <= this one's).
  Worker probe;
  probe.index = 1;
  probe.historical_accuracy = 1.0;
  const auto probe_radius = accuracy.EligibleRadius(probe, acc_min);
  if (!probe_radius.has_value()) return std::nullopt;
  // Cell size of the order of the largest query radius keeps radius
  // queries within a 3x3 cell block; the floor guards degenerate radii.
  return std::max(*probe_radius, 1.0);
}

double StreamingCellSize(const AccuracyFunction& accuracy, double acc_min,
                         double world_width, int shards) {
  const auto cell = SpatialPruningCellSize(accuracy, acc_min);
  if (cell.has_value()) return *cell;
  // No distance structure: gathers scan anyway, so pick the coarsest grid
  // that still gives each shard stripe at least one whole cell column.
  return std::max(world_width / std::max(shards, 1), 1.0);
}

StatusOr<EligibilityIndex> EligibilityIndex::Build(
    const ProblemInstance* instance) {
  if (instance == nullptr) {
    return Status::InvalidArgument("EligibilityIndex: null instance");
  }
  LTC_RETURN_IF_ERROR(instance->Validate());
  EligibilityIndex index(instance);

  const auto cell =
      SpatialPruningCellSize(*instance->accuracy, instance->acc_min);
  if (cell.has_value()) {
    std::vector<geo::Point> locations;
    locations.reserve(instance->tasks.size());
    for (const Task& t : instance->tasks) locations.push_back(t.location);
    LTC_ASSIGN_OR_RETURN(auto grid,
                         geo::GridIndex::Build(std::move(locations), *cell));
    index.grid_.emplace(std::move(grid));
  }
  return index;
}

std::optional<double> EligibilityIndex::QueryRadius(const Worker& w) const {
  if (!grid_.has_value()) return std::nullopt;
  return instance_->accuracy->EligibleRadius(w, instance_->acc_min);
}

void EligibilityIndex::EligibleTasks(const Worker& w,
                                     std::vector<TaskId>* out) const {
  out->clear();
  ForEachEligible(w, [&](TaskId t) { out->push_back(t); });
}

void EligibilityIndex::EligibleTasksSorted(const Worker& w,
                                           std::vector<TaskId>* out) const {
  EligibleTasks(w, out);
  // The grid path emits cell order; the scan path is already ascending
  // (the ForEachEligible ordering contract).
  if (grid_.has_value()) std::sort(out->begin(), out->end());
}

}  // namespace model
}  // namespace ltc
