#include "geo/shard_map.h"

#include <algorithm>

#include "geo/cell_grid.h"

namespace ltc {
namespace geo {

StatusOr<ShardMap> ShardMap::Build(const Rect& bounds, double cell_size,
                                   int shards) {
  if (!(cell_size > 0.0)) {
    return Status::InvalidArgument("ShardMap cell_size must be positive");
  }
  if (bounds.Width() < 0.0 || bounds.Height() < 0.0) {
    return Status::InvalidArgument("ShardMap bounds must be non-degenerate");
  }
  if (shards < 1) {
    return Status::InvalidArgument("ShardMap needs at least one shard");
  }
  ShardMap map;
  map.bounds_ = bounds;
  map.cell_size_ = cell_size;
  // Same column count as GridIndex::BuildDynamic, so stripe edges land
  // exactly on the per-shard grids' cell boundaries.
  LTC_ASSIGN_OR_RETURN(map.cells_x_, CellsPerAxis(bounds.Width(), cell_size));
  map.num_shards_ = shards;
  map.col_shard_.resize(static_cast<std::size_t>(map.cells_x_));
  // Even split of whole columns: shard s owns [s*cx/K, (s+1)*cx/K).
  for (int s = 0; s < shards; ++s) {
    for (std::int64_t c = map.cells_x_ * s / shards;
         c < map.cells_x_ * (s + 1) / shards; ++c) {
      map.col_shard_[static_cast<std::size_t>(c)] = s;
    }
  }
  return map;
}

std::int64_t ShardMap::ColumnOf(double x) const {
  // The same both-ends clamp GridIndex uses.
  return ClampedCell((x - bounds_.min_x) / cell_size_, cells_x_);
}

}  // namespace geo
}  // namespace ltc
