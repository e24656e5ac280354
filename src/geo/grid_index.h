// Uniform-grid spatial index over a point set, in two modes.
//
// This is the workhorse behind eligibility queries: every algorithm needs
// "tasks within reach of this worker" per arrival, and the experiment scale
// (|W| up to 400K, |T| up to 100K in Fig. 4b) makes brute-force scans
// intractable. Cell size defaults to the query radius so a radius query
// touches at most a 3x3 block of cells.
//
// * Static mode (Build): a CSR layout over an immutable point vector — the
//   cache-friendly form every batch experiment uses.
// * Dynamic mode (BuildDynamic): per-cell sorted buckets over a fixed grid
//   geometry, supporting Insert/Remove/Relocate so a long-running service
//   (svc::StreamPipeline) can maintain the open-task set incrementally instead
//   of rebuilding per batch. Invariants: ids are caller-assigned and unique;
//   bucket contents stay ascending by id, so query results match an index
//   rebuilt from scratch over the same live set (DESIGN.md §8, asserted by
//   tests/geo_dynamic_test.cc). Points outside the construction bounds are
//   accepted: they clamp into the boundary cells, and the query window
//   clamps the same way, so correctness is unaffected — only boundary-cell
//   occupancy grows. Per-id slots cover a window of ids: RetireIdsBefore
//   drops the slots of absent ids below a floor, so a caller whose ids grow
//   forever (a service's task ids) keeps slots only for its recent ones.

#ifndef LTC_GEO_GRID_INDEX_H_
#define LTC_GEO_GRID_INDEX_H_

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include "common/id_window.h"
#include "common/status.h"
#include "geo/cell_grid.h"
#include "geo/point.h"
#include "geo/rect.h"

namespace ltc {
namespace geo {

/// \brief Uniform grid over points, supporting radius and k-NN queries.
///
/// Static mode: build once from a point vector (ids are the vector indices),
/// then query. Dynamic mode: build empty over fixed bounds, then mutate.
/// Thread-compatible: const queries are safe concurrently; mutations require
/// external exclusion.
class GridIndex {
 public:
  /// Builds a static index with the given cell size. cell_size must be > 0.
  /// A grid past kMaxCellsPerAxis along an axis or kMaxCells in all
  /// (cell_grid.h) is InvalidArgument, as in BuildDynamic.
  static StatusOr<GridIndex> Build(std::vector<Point> points, double cell_size);

  /// Builds an empty dynamic index whose grid geometry covers `bounds` with
  /// the given cell size (> 0). The geometry is fixed for the index's
  /// lifetime; points outside the bounds clamp into boundary cells.
  static StatusOr<GridIndex> BuildDynamic(const Rect& bounds, double cell_size);

  /// True for BuildDynamic-built indices (the only ones accepting mutation).
  bool dynamic() const { return dynamic_; }

  /// Inserts `id` at `p`. The id must be at least the retirement floor
  /// (0 until RetireIdsBefore) and not present. Dynamic mode only.
  Status Insert(std::int64_t id, const Point& p);

  /// Removes a present `id`. Dynamic mode only.
  Status Remove(std::int64_t id);

  /// Moves a present `id` to `p` (equivalent to Remove + Insert, but stays
  /// O(1) bucket work when the point stays in its cell). Dynamic mode only.
  Status Relocate(std::int64_t id, const Point& p);

  /// Drops the slots of every id below `id`, none of which may be present
  /// (FailedPrecondition otherwise), and raises the floor to `id`; a no-op
  /// at or below the floor. O(slots dropped + slots kept). Dynamic mode
  /// only.
  Status RetireIdsBefore(std::int64_t id);

  /// True iff `id` is currently in the index.
  bool Contains(std::int64_t id) const {
    return entries_.contains(id) && entries_.at(id).cell >= 0;
  }

  /// Appends ids of all points within `radius` of `center` (inclusive) to
  /// *out (cleared first). Results are in cell order — ascending within a
  /// cell, unspecified across cells; sort the output if you need global id
  /// order (EligibilityIndex::EligibleTasksSorted does).
  void QueryRadius(const Point& center, double radius,
                   std::vector<std::int64_t>* out) const;

  /// Counts points within `radius` of `center` without materialising ids.
  std::int64_t CountRadius(const Point& center, double radius) const;

  /// Invokes fn(id) for every point within `radius` of `center`
  /// (inclusive), in cell order, without materialising an id vector. This
  /// is the allocation-free primitive under QueryRadius/CountRadius and the
  /// filtered counting of EligibilityIndex::CountEligible.
  template <typename Fn>
  void ForEachInRadius(const Point& center, double radius, Fn&& fn) const {
    if (count_ == 0 || radius < 0.0) return;
    const double r2 = radius * radius;
    // Cell range covering the query disk. Both ends clamp into the grid:
    // dynamic mode stores out-of-bounds points in boundary cells, so even a
    // disk lying entirely outside the bounds must still visit the boundary
    // row/column it clamps to (the distance check rejects non-matches).
    const std::int64_t lo_x = ClampedCell(
        (center.x - radius - bounds_.min_x) / cell_size_, cells_x_);
    const std::int64_t hi_x = ClampedCell(
        (center.x + radius - bounds_.min_x) / cell_size_, cells_x_);
    const std::int64_t lo_y = ClampedCell(
        (center.y - radius - bounds_.min_y) / cell_size_, cells_y_);
    const std::int64_t hi_y = ClampedCell(
        (center.y + radius - bounds_.min_y) / cell_size_, cells_y_);
    for (std::int64_t cy = lo_y; cy <= hi_y; ++cy) {
      for (std::int64_t cx = lo_x; cx <= hi_x; ++cx) {
        ForEachInCell(static_cast<std::size_t>(cy * cells_x_ + cx),
                      [&](std::int64_t id) {
                        if (SquaredDistance(point(id), center) <= r2) {
                          fn(id);
                        }
                      });
      }
    }
  }

  /// Id of the nearest point to `center` (-1 if the index is empty). Ties
  /// on distance prefer the smaller id.
  std::int64_t Nearest(const Point& center) const;

  /// Number of live points.
  std::size_t size() const { return count_; }
  const Point& point(std::int64_t id) const { return entries_.at(id).point; }

 private:
  GridIndex() = default;

  /// Grid coordinates of a point (clamped into the grid extent).
  void CellOf(const Point& p, std::int64_t* cx, std::int64_t* cy) const;

  /// Flat cell index of a point.
  std::int64_t FlatCellOf(const Point& p) const;

  /// Invokes fn(id) for every point of cell `c`, ascending by id.
  template <typename Fn>
  void ForEachInCell(std::size_t c, Fn&& fn) const {
    if (dynamic_) {
      for (std::int64_t id : buckets_[c]) fn(id);
      return;
    }
    for (std::int64_t k = cell_start_[c]; k < cell_start_[c + 1]; ++k) {
      fn(ids_[static_cast<std::size_t>(k)]);
    }
  }

  /// An id's point and the flat cell holding it (-1: absent, a hole the
  /// dynamic mode leaves).
  struct Entry {
    Point point;
    std::int64_t cell = -1;
  };

  bool dynamic_ = false;
  // Per id from the retirement floor on (always 0 in static mode).
  IdWindow<Entry> entries_;
  Rect bounds_;
  double cell_size_ = 1.0;
  std::int64_t cells_x_ = 0;
  std::int64_t cells_y_ = 0;
  std::size_t count_ = 0;  // live points (static: == entries_.size())
  // Static CSR layout: ids of points in cell c live at ids_[cell_start_[c]
  // .. cell_start_[c+1]).
  std::vector<std::int64_t> cell_start_;
  std::vector<std::int64_t> ids_;
  // Dynamic layout: buckets_[c] holds the ids of cell c, ascending.
  std::vector<std::vector<std::int64_t>> buckets_;
};

}  // namespace geo
}  // namespace ltc

#endif  // LTC_GEO_GRID_INDEX_H_
