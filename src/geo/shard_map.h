// Spatial shard mapping: grid-aligned vertical stripes over a world
// rectangle, the partitioning scheme of the sharded streaming service
// (svc::ShardedStreamEngine, DESIGN.md §9).
//
// The service region is cut into `shards` contiguous stripes of whole
// GridIndex cell columns (same cell geometry as the per-shard incremental
// indices, so a stripe boundary is always a cell boundary — a radius query
// inside one shard never straddles a partially-owned cell). Two queries
// matter:
//
//  * ShardOf(p): the stripe owning a location (task routing). Out-of-bounds
//    locations clamp into the boundary stripes, mirroring GridIndex's
//    clamped boundary cells.
//  * ShardRange(p, radius): every stripe a disk intersects (worker
//    routing) — the cross-shard radius query behind the boundary-handoff
//    protocol. Stripes are x-contiguous, so the answer is a closed shard
//    interval [lo, hi].

#ifndef LTC_GEO_SHARD_MAP_H_
#define LTC_GEO_SHARD_MAP_H_

#include <cstdint>
#include <vector>

#include "common/status.h"
#include "geo/point.h"
#include "geo/rect.h"

namespace ltc {
namespace geo {

/// \brief Immutable cell-column → shard mapping over a fixed world.
///
/// Thread-compatible: all queries are const and safe concurrently.
class ShardMap {
 public:
  /// Default: one shard owning the whole (unit) world — a safe placeholder
  /// so engines can hold a ShardMap member before Build replaces it.
  ShardMap() = default;

  /// Builds a map cutting `bounds` into `shards` stripes of whole cell
  /// columns (cell geometry identical to GridIndex::BuildDynamic over the
  /// same bounds/cell_size). cell_size must be > 0, shards >= 1. When
  /// shards exceeds the column count, the trailing shards own zero columns
  /// — they simply never receive work.
  static StatusOr<ShardMap> Build(const Rect& bounds, double cell_size,
                                  int shards);

  int num_shards() const { return num_shards_; }

  /// The stripe owning `p` (out-of-bounds clamps to a boundary stripe).
  int ShardOf(const Point& p) const { return col_shard_[ColumnOf(p.x)]; }

  /// The closed shard interval [*lo, *hi] of stripes whose x-range
  /// intersects [p.x - radius, p.x + radius]. Negative radii collapse to
  /// the owning stripe.
  void ShardRange(const Point& p, double radius, int* lo, int* hi) const {
    if (radius < 0.0) radius = 0.0;
    *lo = col_shard_[ColumnOf(p.x - radius)];
    *hi = col_shard_[ColumnOf(p.x + radius)];
  }

 private:
  std::int64_t ColumnOf(double x) const;

  Rect bounds_{0.0, 0.0, 1.0, 1.0};
  double cell_size_ = 1.0;
  std::int64_t cells_x_ = 1;
  int num_shards_ = 1;
  std::vector<int> col_shard_{0};  // column -> shard
};

}  // namespace geo
}  // namespace ltc

#endif  // LTC_GEO_SHARD_MAP_H_
