// The grid *geometry* of a GridIndex, as a standalone value type.
//
// GridIndex (grid_index.h) couples two things: a fixed cell decomposition
// of a world rectangle, and the point buckets living in it. Consumers that
// only need the decomposition — the per-cell arrival-rate estimators of
// src/fcst, and the occupancy accounting a 2-D shard rebalancer needs —
// should not have to carry (or mutate) an index to ask "which cell is this
// point in". CellGrid is that decomposition alone.
//
// The cell math is exactly GridIndex's: floor() cell coordinates, both
// ends clamped into the grid extent, so out-of-bounds points land in the
// boundary cells. A CellGrid built from the same (bounds, cell_size) as a
// dynamic GridIndex therefore assigns every point the same flat cell the
// index's own buckets use (tests/fcst_test.cc pins the clamp behaviour).

#ifndef LTC_GEO_CELL_GRID_H_
#define LTC_GEO_CELL_GRID_H_

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <string>

#include "common/status.h"
#include "geo/point.h"
#include "geo/rect.h"

namespace ltc {
namespace geo {

/// The grid column (or row) holding offset `t`, in cells from the grid's
/// low edge: floor(t) clamped into [0, cells - 1]. The clamp happens in
/// double, before the integer cast, so a coordinate too large for int64
/// (1e300, ±inf) lands in the boundary cell on its own side; NaN maps to
/// cell 0. Every in-range offset maps as floor-then-clamp would. GridIndex,
/// CellGrid and ShardMap all take their cells from here.
inline std::int64_t ClampedCell(double t, std::int64_t cells) {
  const double f = std::floor(t);
  if (!(f > 0.0)) return 0;
  const auto last = static_cast<double>(cells - 1);
  return f < last ? static_cast<std::int64_t>(f) : cells - 1;
}

/// The most cells a GridIndex or ShardMap lays along one axis. Far past
/// any useful grid (a 2^22-cell axis over a 500-unit world has 1e-4-unit
/// cells), and far below where the count stops fitting an int64.
inline constexpr std::int64_t kMaxCellsPerAxis = std::int64_t{1} << 22;

/// The cells a Build-time grid lays along an axis of length `extent` (>= 0)
/// with square cells of side `cell_size` (> 0): floor(extent / cell_size)
/// + 1. The count is taken in double and checked against kMaxCellsPerAxis
/// before the integer cast, so one far point (a 1e300 extent) or a NaN is
/// InvalidArgument, not an out-of-range conversion.
inline StatusOr<std::int64_t> CellsPerAxis(double extent, double cell_size) {
  const double cells = std::floor(extent / cell_size) + 1.0;
  if (!(cells <= static_cast<double>(kMaxCellsPerAxis))) {
    return Status::InvalidArgument(
        "grid would need more than " + std::to_string(kMaxCellsPerAxis) +
        " cells along an axis (extent " + std::to_string(extent) +
        ", cell size " + std::to_string(cell_size) + ")");
  }
  return std::max<std::int64_t>(1, static_cast<std::int64_t>(cells));
}

/// The most cells a GridIndex lays in all: 2^24 cells already take 128 MB
/// of int64 counters, so a large but finite world with a fine cell is
/// refused before the allocation rather than ending the process.
inline constexpr std::int64_t kMaxCells = std::int64_t{1} << 24;

/// OK when a `cells_x` x `cells_y` grid (each from CellsPerAxis, so the
/// product fits an int64) is within kMaxCells; InvalidArgument otherwise.
inline Status CheckCellCount(std::int64_t cells_x, std::int64_t cells_y) {
  if (cells_x * cells_y > kMaxCells) {
    return Status::InvalidArgument(
        "grid would need " + std::to_string(cells_x) + " x " +
        std::to_string(cells_y) + " cells, more than " +
        std::to_string(kMaxCells));
  }
  return Status::OK();
}

/// \brief A fixed uniform-cell decomposition of a world rectangle.
class CellGrid {
 public:
  /// A 1x1 grid (every point maps to cell 0) — the degenerate geometry a
  /// consumer without spatial structure falls back to.
  CellGrid() = default;

  /// Covers `bounds` with square cells of side `cell_size` (> 0; a
  /// non-positive size degenerates to the single cell).
  CellGrid(const Rect& bounds, double cell_size) : bounds_(bounds) {
    if (cell_size > 0.0) {
      cell_size_ = cell_size;
      cells_x_ = std::max<std::int64_t>(
          1, static_cast<std::int64_t>(
                 std::ceil((bounds.max_x - bounds.min_x) / cell_size)));
      cells_y_ = std::max<std::int64_t>(
          1, static_cast<std::int64_t>(
                 std::ceil((bounds.max_y - bounds.min_y) / cell_size)));
    }
  }

  std::int64_t cells_x() const { return cells_x_; }
  std::int64_t cells_y() const { return cells_y_; }
  std::int64_t num_cells() const { return cells_x_ * cells_y_; }

  /// Flat cell index of `p` in [0, num_cells()). Out-of-bounds points clamp
  /// into the boundary row/column, mirroring GridIndex.
  std::int64_t CellOf(const Point& p) const {
    const std::int64_t cx =
        ClampedCell((p.x - bounds_.min_x) / cell_size_, cells_x_);
    const std::int64_t cy =
        ClampedCell((p.y - bounds_.min_y) / cell_size_, cells_y_);
    return cy * cells_x_ + cx;
  }

 private:
  Rect bounds_{0.0, 0.0, 1.0, 1.0};
  double cell_size_ = 1.0;
  std::int64_t cells_x_ = 1;
  std::int64_t cells_y_ = 1;
};

}  // namespace geo
}  // namespace ltc

#endif  // LTC_GEO_CELL_GRID_H_
