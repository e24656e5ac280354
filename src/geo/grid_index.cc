#include "geo/grid_index.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/string_util.h"

namespace ltc {
namespace geo {

StatusOr<GridIndex> GridIndex::Build(std::vector<Point> points,
                                     double cell_size) {
  if (!(cell_size > 0.0)) {
    return Status::InvalidArgument("GridIndex cell_size must be positive");
  }
  GridIndex index;
  index.cell_size_ = cell_size;
  index.bounds_ = Rect::BoundingBox(points);
  index.count_ = points.size();
  if (points.empty()) {
    index.cells_x_ = index.cells_y_ = 1;
    index.cell_start_.assign(2, 0);
    return index;
  }
  LTC_ASSIGN_OR_RETURN(index.cells_x_,
                       CellsPerAxis(index.bounds_.Width(), cell_size));
  LTC_ASSIGN_OR_RETURN(index.cells_y_,
                       CellsPerAxis(index.bounds_.Height(), cell_size));
  LTC_RETURN_IF_ERROR(CheckCellCount(index.cells_x_, index.cells_y_));

  const std::size_t num_cells =
      static_cast<std::size_t>(index.cells_x_ * index.cells_y_);
  // Counting sort of point ids into cells (CSR).
  std::vector<std::int64_t> counts(num_cells + 1, 0);
  index.entries_.reserve(points.size());
  for (const Point& p : points) {
    const std::int64_t c = index.FlatCellOf(p);
    index.entries_.push_back(Entry{p, c});
    ++counts[static_cast<std::size_t>(c) + 1];
  }
  for (std::size_t c = 1; c < counts.size(); ++c) counts[c] += counts[c - 1];
  index.cell_start_ = counts;
  index.ids_.resize(points.size());
  std::vector<std::int64_t> cursor(counts.begin(), counts.end() - 1);
  for (std::int64_t id = 0; id < index.entries_.end_id(); ++id) {
    const auto c = static_cast<std::size_t>(index.entries_.at(id).cell);
    index.ids_[static_cast<std::size_t>(cursor[c]++)] = id;
  }
  // Ascending ids inside each cell come for free from the stable fill above.
  return index;
}

StatusOr<GridIndex> GridIndex::BuildDynamic(const Rect& bounds,
                                            double cell_size) {
  if (!(cell_size > 0.0)) {
    return Status::InvalidArgument("GridIndex cell_size must be positive");
  }
  if (bounds.Width() < 0.0 || bounds.Height() < 0.0) {
    return Status::InvalidArgument("GridIndex bounds must be non-degenerate");
  }
  GridIndex index;
  index.dynamic_ = true;
  index.cell_size_ = cell_size;
  index.bounds_ = bounds;
  LTC_ASSIGN_OR_RETURN(index.cells_x_, CellsPerAxis(bounds.Width(), cell_size));
  LTC_ASSIGN_OR_RETURN(index.cells_y_,
                       CellsPerAxis(bounds.Height(), cell_size));
  LTC_RETURN_IF_ERROR(CheckCellCount(index.cells_x_, index.cells_y_));
  index.buckets_.resize(static_cast<std::size_t>(index.cells_x_ *
                                                 index.cells_y_));
  return index;
}

Status GridIndex::Insert(std::int64_t id, const Point& p) {
  if (!dynamic_) {
    return Status::FailedPrecondition("Insert on a static GridIndex");
  }
  if (id < entries_.first_id()) {
    return Status::InvalidArgument(
        StrFormat("GridIndex ids must be >= %lld",
                  static_cast<long long>(entries_.first_id())));
  }
  if (Contains(id)) {
    return Status::InvalidArgument(
        StrFormat("GridIndex::Insert: id %lld already present",
                  static_cast<long long>(id)));
  }
  entries_.GrowTo(id + 1, Entry{});
  const std::int64_t c = FlatCellOf(p);
  entries_.at(id) = Entry{p, c};
  auto& bucket = buckets_[static_cast<std::size_t>(c)];
  bucket.insert(std::lower_bound(bucket.begin(), bucket.end(), id), id);
  ++count_;
  return Status::OK();
}

Status GridIndex::Remove(std::int64_t id) {
  if (!dynamic_) {
    return Status::FailedPrecondition("Remove on a static GridIndex");
  }
  if (!Contains(id)) {
    return Status::NotFound(StrFormat("GridIndex::Remove: id %lld not present",
                                      static_cast<long long>(id)));
  }
  std::int64_t& cell = entries_.at(id).cell;
  auto& bucket = buckets_[static_cast<std::size_t>(cell)];
  bucket.erase(std::lower_bound(bucket.begin(), bucket.end(), id));
  cell = -1;
  --count_;
  return Status::OK();
}

Status GridIndex::Relocate(std::int64_t id, const Point& p) {
  if (!dynamic_) {
    return Status::FailedPrecondition("Relocate on a static GridIndex");
  }
  if (!Contains(id)) {
    return Status::NotFound(
        StrFormat("GridIndex::Relocate: id %lld not present",
                  static_cast<long long>(id)));
  }
  Entry& entry = entries_.at(id);
  const std::int64_t from = entry.cell;
  const std::int64_t to = FlatCellOf(p);
  entry.point = p;
  if (from == to) return Status::OK();
  auto& old_bucket = buckets_[static_cast<std::size_t>(from)];
  old_bucket.erase(std::lower_bound(old_bucket.begin(), old_bucket.end(), id));
  auto& new_bucket = buckets_[static_cast<std::size_t>(to)];
  new_bucket.insert(
      std::lower_bound(new_bucket.begin(), new_bucket.end(), id), id);
  entry.cell = to;
  return Status::OK();
}

Status GridIndex::RetireIdsBefore(std::int64_t id) {
  if (!dynamic_) {
    return Status::FailedPrecondition("RetireIdsBefore on a static GridIndex");
  }
  const std::int64_t end = std::min(id, entries_.end_id());
  for (std::int64_t present = entries_.first_id(); present < end; ++present) {
    if (Contains(present)) {
      return Status::FailedPrecondition(StrFormat(
          "GridIndex::RetireIdsBefore(%lld): id %lld is present",
          static_cast<long long>(id), static_cast<long long>(present)));
    }
  }
  entries_.RetireBefore(id);
  return Status::OK();
}

void GridIndex::CellOf(const Point& p, std::int64_t* cx,
                       std::int64_t* cy) const {
  // The same floor-and-clamp as ForEachInRadius's query window, so the
  // insert side and the query side agree by construction;
  // tests/geo_dynamic_test pins the out-of-bounds Insert/Relocate behaviour.
  *cx = ClampedCell((p.x - bounds_.min_x) / cell_size_, cells_x_);
  *cy = ClampedCell((p.y - bounds_.min_y) / cell_size_, cells_y_);
}

std::int64_t GridIndex::FlatCellOf(const Point& p) const {
  std::int64_t cx;
  std::int64_t cy;
  CellOf(p, &cx, &cy);
  return cy * cells_x_ + cx;
}

void GridIndex::QueryRadius(const Point& center, double radius,
                            std::vector<std::int64_t>* out) const {
  out->clear();
  ForEachInRadius(center, radius,
                  [out](std::int64_t id) { out->push_back(id); });
}

std::int64_t GridIndex::Nearest(const Point& center) const {
  if (count_ == 0) return -1;
  // Expanding ring search over cells.
  std::int64_t ccx;
  std::int64_t ccy;
  CellOf(center, &ccx, &ccy);
  std::int64_t best = -1;
  double best_d2 = std::numeric_limits<double>::infinity();
  const std::int64_t max_ring = std::max(cells_x_, cells_y_);
  for (std::int64_t ring = 0; ring <= max_ring; ++ring) {
    // Once a candidate exists and the ring's nearest possible distance
    // exceeds it, stop.
    if (best >= 0) {
      const double ring_min = (ring - 1) * cell_size_;
      if (ring_min > 0 && ring_min * ring_min > best_d2) break;
    }
    for (std::int64_t cy = ccy - ring; cy <= ccy + ring; ++cy) {
      if (cy < 0 || cy >= cells_y_) continue;
      for (std::int64_t cx = ccx - ring; cx <= ccx + ring; ++cx) {
        if (cx < 0 || cx >= cells_x_) continue;
        // Only the ring boundary (interior was visited by smaller rings).
        if (ring > 0 && std::abs(cx - ccx) != ring && std::abs(cy - ccy) != ring)
          continue;
        ForEachInCell(static_cast<std::size_t>(cy * cells_x_ + cx),
                      [&](std::int64_t id) {
                        const double d2 = SquaredDistance(point(id), center);
                        // best < 0 admits the first point even when every
                        // squared distance overflows to inf (a 1e300 query).
                        if (best < 0 || d2 < best_d2 ||
                            (d2 == best_d2 && id < best)) {
                          best_d2 = d2;
                          best = id;
                        }
                      });
      }
    }
  }
  return best;
}

}  // namespace geo
}  // namespace ltc
