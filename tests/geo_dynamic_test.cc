// Property tests for geo::GridIndex dynamic mode: random
// Insert/Remove/Relocate sequences must leave the index answering radius
// and nearest-point queries identically to an index rebuilt from scratch
// over the same live point set — the invariant svc::StreamPipeline's
// incremental open-task index rests on (DESIGN.md §8). Also: coordinates
// too large for an int64 cell index (±1e300) clamp to their own edge in
// every grid geometry (GridIndex, CellGrid, ShardMap).

#include <algorithm>
#include <cmath>
#include <map>
#include <vector>

#include "common/random.h"
#include "geo/cell_grid.h"
#include "geo/grid_index.h"
#include "geo/shard_map.h"
#include "gtest/gtest.h"

namespace ltc {
namespace geo {
namespace {

using PointMap = std::map<std::int64_t, Point>;

/// Brute-force radius answer over the reference map, ascending ids.
std::vector<std::int64_t> BruteRadius(const PointMap& points,
                                      const Point& center, double radius) {
  std::vector<std::int64_t> out;
  for (const auto& [id, p] : points) {
    if (SquaredDistance(p, center) <= radius * radius) out.push_back(id);
  }
  return out;
}

/// Brute-force nearest point: smallest (distance, id); -1 when empty.
std::int64_t BruteNearest(const PointMap& points, const Point& center) {
  std::int64_t best = -1;
  double best_d2 = 0.0;
  for (const auto& [id, p] : points) {  // ascending ids: ties keep the first
    const double d2 = SquaredDistance(p, center);
    if (best < 0 || d2 < best_d2) {
      best = id;
      best_d2 = d2;
    }
  }
  return best;
}

/// Rebuilds a dynamic index from scratch (ascending-id insertion) over the
/// same geometry — the "rebuilt" side of the equivalence contract.
GridIndex RebuildDynamic(const PointMap& points, const Rect& world,
                         double cell_size) {
  auto rebuilt = GridIndex::BuildDynamic(world, cell_size);
  EXPECT_TRUE(rebuilt.ok());
  for (const auto& [id, p] : points) {
    EXPECT_TRUE(rebuilt.value().Insert(id, p).ok());
  }
  return std::move(rebuilt).value();
}

TEST(GridIndexDynamicTest, RandomSequencesMatchRebuiltIndex) {
  Rng rng(20260728);
  const Rect world{0.0, 0.0, 100.0, 100.0};
  for (int sequence = 0; sequence < 100; ++sequence) {
    const double cell_size = rng.Uniform(2.0, 15.0);
    auto built = GridIndex::BuildDynamic(world, cell_size);
    ASSERT_TRUE(built.ok()) << built.status().ToString();
    GridIndex index = std::move(built).value();
    PointMap reference;

    const int ops = static_cast<int>(rng.UniformInt(20, 80));
    for (int op = 0; op < ops; ++op) {
      // Points deliberately stray outside the world: out-of-bounds arrivals
      // must clamp into boundary cells without breaking any query.
      const Point p{rng.Uniform(-15.0, 115.0), rng.Uniform(-15.0, 115.0)};
      const double dice = rng.NextDouble();
      if (reference.empty() || dice < 0.5) {
        std::int64_t id = rng.UniformInt(0, 199);
        while (reference.count(id) > 0) id = (id + 1) % 200;
        ASSERT_TRUE(index.Insert(id, p).ok());
        reference[id] = p;
      } else if (dice < 0.75) {
        auto it = reference.begin();
        std::advance(it, rng.UniformInt(
                             0, static_cast<std::int64_t>(reference.size()) -
                                    1));
        ASSERT_TRUE(index.Remove(it->first).ok());
        reference.erase(it);
      } else {
        auto it = reference.begin();
        std::advance(it, rng.UniformInt(
                             0, static_cast<std::int64_t>(reference.size()) -
                                    1));
        ASSERT_TRUE(index.Relocate(it->first, p).ok());
        it->second = p;
      }
    }

    ASSERT_EQ(index.size(), reference.size());
    const GridIndex rebuilt = RebuildDynamic(reference, world, cell_size);

    for (int query = 0; query < 8; ++query) {
      const Point center{rng.Uniform(-10.0, 110.0), rng.Uniform(-10.0, 110.0)};
      const double radius = rng.Uniform(0.0, 60.0);

      // Radius queries: the mutated index and the rebuilt index must agree
      // *exactly* (same ids in the same cell-major order), and both must
      // match brute force as a set.
      std::vector<std::int64_t> got;
      std::vector<std::int64_t> fresh;
      index.QueryRadius(center, radius, &got);
      rebuilt.QueryRadius(center, radius, &fresh);
      EXPECT_EQ(got, fresh) << "sequence " << sequence;
      EXPECT_EQ(index.CountRadius(center, radius),
                static_cast<std::int64_t>(got.size()));
      std::sort(got.begin(), got.end());
      EXPECT_EQ(got, BruteRadius(reference, center, radius))
          << "sequence " << sequence;

      // Nearest: smallest (distance, id) is layout-independent, so all
      // three agree.
      const std::int64_t nearest = index.Nearest(center);
      EXPECT_EQ(nearest, rebuilt.Nearest(center)) << "sequence " << sequence;
      EXPECT_EQ(nearest, BruteNearest(reference, center))
          << "sequence " << sequence;
    }
  }
}

// Directed regression for the insert-side clamp: a Relocate (or Insert) to
// a coordinate outside the built bounds must land in the clamped edge cell
// — the same cell the query window clamps to — so radius and nearest-point
// queries keep finding the point. Exercises all four sides plus the corners at
// points less than one cell beyond the edge (where truncation-vs-floor
// bugs hide) and far beyond it.
TEST(GridIndexDynamicTest, RelocateOutsideBoundsStaysQueryable) {
  const Rect world{0.0, 0.0, 100.0, 100.0};
  const std::vector<Point> destinations = {
      {-0.5, 50.0},   {100.5, 50.0},  {50.0, -0.5},   {50.0, 100.5},
      {-0.5, -0.5},   {100.5, 100.5}, {-40.0, 50.0},  {140.0, 50.0},
      {50.0, -40.0},  {50.0, 140.0},  {-40.0, -40.0}, {140.0, 140.0},
  };
  for (double cell_size : {1.0, 7.0, 30.0}) {
    auto built = GridIndex::BuildDynamic(world, cell_size);
    ASSERT_TRUE(built.ok());
    GridIndex index = std::move(built).value();
    ASSERT_TRUE(index.Insert(0, {50.0, 50.0}).ok());

    for (const Point& p : destinations) {
      ASSERT_TRUE(index.Relocate(0, p).ok());
      // Radius queries centred on the point (and just inside the world)
      // find it.
      std::vector<std::int64_t> got;
      index.QueryRadius(p, 0.0, &got);
      EXPECT_EQ(got, std::vector<std::int64_t>{0})
          << "cell " << cell_size << " point (" << p.x << ", " << p.y << ")";
      index.QueryRadius({50.0, 50.0}, 200.0, &got);
      EXPECT_EQ(got, std::vector<std::int64_t>{0});
      // Nearest from anywhere still surfaces the only live point.
      EXPECT_EQ(index.Nearest({50.0, 50.0}), 0);
      EXPECT_EQ(index.Nearest(p), 0);
      // A fresh insert at the same out-of-bounds location agrees with the
      // relocated index (insert-side and relocate-side clamp match).
      auto fresh = GridIndex::BuildDynamic(world, cell_size);
      ASSERT_TRUE(fresh.ok());
      ASSERT_TRUE(fresh.value().Insert(0, p).ok());
      std::vector<std::int64_t> fresh_got;
      fresh.value().QueryRadius(p, 0.0, &fresh_got);
      EXPECT_EQ(fresh_got, std::vector<std::int64_t>{0});
    }
  }
}

// Ids that only grow (a service's task ids): retiring the slots below the
// oldest live id keeps every query identical to an index rebuilt over the
// live set, and ids below the floor are refused afterwards.
TEST(GridIndexDynamicTest, RetiredIdSlotsLeaveQueriesExact) {
  Rng rng(20261020);
  const Rect world{0.0, 0.0, 100.0, 100.0};
  auto built = GridIndex::BuildDynamic(world, 8.0);
  ASSERT_TRUE(built.ok());
  GridIndex index = std::move(built).value();
  PointMap reference;
  std::int64_t next = 0;
  std::int64_t floor = 0;
  for (int op = 0; op < 2000; ++op) {
    if (reference.empty() || rng.NextDouble() < 0.55) {
      const Point p{rng.Uniform(0.0, 100.0), rng.Uniform(0.0, 100.0)};
      ASSERT_TRUE(index.Insert(next, p).ok());
      reference[next++] = p;
    } else {
      // Mostly the oldest ids leave, as tasks close.
      auto it = reference.begin();
      std::advance(it, rng.UniformInt(
                           0, std::min<std::int64_t>(
                                  3, static_cast<std::int64_t>(
                                         reference.size()) - 1)));
      ASSERT_TRUE(index.Remove(it->first).ok());
      reference.erase(it);
    }
    const std::int64_t oldest =
        reference.empty() ? next : reference.begin()->first;
    if (op % 7 == 0 && oldest > floor) {
      ASSERT_TRUE(index.RetireIdsBefore(oldest).ok());
      floor = oldest;
    }
    if (op % 50 != 0) continue;
    const GridIndex rebuilt = RebuildDynamic(reference, world, 8.0);
    const Point center{rng.Uniform(0.0, 100.0), rng.Uniform(0.0, 100.0)};
    std::vector<std::int64_t> got;
    std::vector<std::int64_t> fresh;
    index.QueryRadius(center, 30.0, &got);
    rebuilt.QueryRadius(center, 30.0, &fresh);
    EXPECT_EQ(got, fresh) << "op " << op;
    EXPECT_EQ(index.Nearest(center), rebuilt.Nearest(center)) << "op " << op;
  }
  ASSERT_GT(floor, 0);
  EXPECT_FALSE(index.Contains(floor - 1));
  EXPECT_TRUE(index.Insert(floor - 1, {1.0, 1.0}).IsInvalidArgument());
  // A live id below the requested floor is refused, and nothing moves.
  ASSERT_FALSE(reference.empty());
  const std::int64_t live = reference.begin()->first;
  EXPECT_TRUE(index.RetireIdsBefore(live + 1).IsFailedPrecondition());
  EXPECT_TRUE(index.Contains(live));
  EXPECT_TRUE(index.RetireIdsBefore(floor - 1).ok());  // below the floor
}

TEST(GridIndexDynamicTest, MutationErrors) {
  auto built = GridIndex::BuildDynamic(Rect{0, 0, 10, 10}, 1.0);
  ASSERT_TRUE(built.ok());
  GridIndex index = std::move(built).value();

  EXPECT_TRUE(index.Insert(3, {1.0, 1.0}).ok());
  EXPECT_TRUE(index.Insert(3, {2.0, 2.0}).IsInvalidArgument());
  EXPECT_TRUE(index.Insert(-1, {2.0, 2.0}).IsInvalidArgument());
  EXPECT_TRUE(index.Remove(4).IsNotFound());
  EXPECT_TRUE(index.Relocate(4, {2.0, 2.0}).IsNotFound());
  EXPECT_TRUE(index.Remove(3).ok());
  EXPECT_TRUE(index.Remove(3).IsNotFound());
  EXPECT_EQ(index.size(), 0u);
}

TEST(GridIndexDynamicTest, StaticIndexRejectsMutation) {
  auto built = GridIndex::Build({{1.0, 1.0}, {2.0, 2.0}}, 1.0);
  ASSERT_TRUE(built.ok());
  GridIndex index = std::move(built).value();
  EXPECT_FALSE(index.dynamic());
  EXPECT_TRUE(index.Insert(5, {3.0, 3.0}).IsFailedPrecondition());
  EXPECT_TRUE(index.Remove(0).IsFailedPrecondition());
  EXPECT_TRUE(index.Relocate(0, {3.0, 3.0}).IsFailedPrecondition());
  EXPECT_TRUE(index.RetireIdsBefore(1).IsFailedPrecondition());
}

TEST(GridIndexDynamicTest, StaticNearestMatchesBruteForce) {
  Rng rng(7);
  std::vector<Point> points;
  PointMap reference;
  for (std::int64_t i = 0; i < 60; ++i) {
    const Point p{rng.Uniform(0.0, 50.0), rng.Uniform(0.0, 50.0)};
    points.push_back(p);
    reference[i] = p;
  }
  auto built = GridIndex::Build(points, 5.0);
  ASSERT_TRUE(built.ok());
  const GridIndex index = std::move(built).value();
  for (int query = 0; query < 20; ++query) {
    const Point center{rng.Uniform(0.0, 50.0), rng.Uniform(0.0, 50.0)};
    EXPECT_EQ(index.Nearest(center), BruteNearest(reference, center));
  }
}

TEST(GridClampTest, HugeCoordinatesLandOnTheirOwnEdge) {
  const Rect world{0.0, 0.0, 100.0, 50.0};
  const CellGrid grid(world, 10.0);  // 10 x 5 cells
  const std::int64_t last_row = grid.num_cells() - grid.cells_x();
  EXPECT_EQ(grid.CellOf({1e300, 25.0}), 2 * grid.cells_x() + 9);
  EXPECT_EQ(grid.CellOf({-1e300, 25.0}), 2 * grid.cells_x());
  EXPECT_EQ(grid.CellOf({1e300, 1e300}), grid.num_cells() - 1);
  EXPECT_EQ(grid.CellOf({1e300, -1e300}), grid.cells_x() - 1);
  EXPECT_EQ(grid.CellOf({-1e300, 1e300}), last_row);
  EXPECT_EQ(grid.CellOf({-1e300, -1e300}), 0);

  auto built = ShardMap::Build(world, 10.0, 3);
  ASSERT_TRUE(built.ok());
  const ShardMap& map = built.value();
  EXPECT_EQ(map.ShardOf({1e300, 25.0}), 2);
  EXPECT_EQ(map.ShardOf({-1e300, 25.0}), 0);
  int lo = -1;
  int hi = -1;
  map.ShardRange({50.0, 25.0}, 1e300, &lo, &hi);
  EXPECT_EQ(lo, 0);
  EXPECT_EQ(hi, 2);
  map.ShardRange({1e300, 25.0}, 1.0, &lo, &hi);
  EXPECT_EQ(lo, 2);
  EXPECT_EQ(hi, 2);
}

TEST(GridClampTest, HugeCoordinatesStayQueryable) {
  const Rect world{0.0, 0.0, 100.0, 50.0};
  auto built = GridIndex::BuildDynamic(world, 10.0);
  ASSERT_TRUE(built.ok());
  GridIndex& index = built.value();
  PointMap reference;
  for (std::int64_t col = 0; col < 10; ++col) {
    reference[col] = {10.0 * static_cast<double>(col) + 5.0, 25.0};
  }
  reference[10] = {1e300, 25.0};
  reference[11] = {-1e300, 25.0};
  reference[12] = {50.0, 1e300};
  reference[13] = {-1e300, -1e300};
  for (const auto& [id, p] : reference) ASSERT_TRUE(index.Insert(id, p).ok());

  std::vector<std::int64_t> got;
  // A radius past every coordinate must open the window over every cell.
  index.QueryRadius({50.0, 25.0}, 1e300, &got);
  std::sort(got.begin(), got.end());
  EXPECT_EQ(got, BruteRadius(reference, {50.0, 25.0}, 1e300));
  EXPECT_EQ(got.size(), reference.size());
  for (const std::int64_t id : {10, 11, 12, 13}) {
    const Point& p = reference[id];
    index.QueryRadius(p, 1.0, &got);
    EXPECT_EQ(got, BruteRadius(reference, p, 1.0)) << "id " << id;
    EXPECT_EQ(index.Nearest(p), BruteNearest(reference, p)) << "id " << id;
  }
  ASSERT_TRUE(index.Relocate(10, {5.0, 5.0}).ok());
  ASSERT_TRUE(index.Relocate(0, {1e300, -1e300}).ok());
  ASSERT_TRUE(index.Remove(13).ok());
  reference[10] = {5.0, 5.0};
  reference[0] = {1e300, -1e300};
  reference.erase(13);
  index.QueryRadius({1e300, -1e300}, 1.0, &got);
  EXPECT_EQ(got, BruteRadius(reference, {1e300, -1e300}, 1.0));
  EXPECT_EQ(index.Nearest({1e300, 25.0}),
            BruteNearest(reference, {1e300, 25.0}));
}

TEST(GridSizingTest, CellCountsPastTheCapAreInvalidArgument) {
  // One far point: 1e299 columns would overflow the int64 cast.
  auto far = GridIndex::Build({{0.0, 0.0}, {1e300, 0.0}}, 10.0);
  ASSERT_FALSE(far.ok());
  EXPECT_TRUE(far.status().IsInvalidArgument()) << far.status().ToString();
  auto tall = GridIndex::Build({{0.0, 0.0}, {0.0, 1e300}}, 10.0);
  ASSERT_FALSE(tall.ok());
  EXPECT_TRUE(tall.status().IsInvalidArgument());
  // A 1e12-wide world: representable, but past the per-axis cap.
  const Rect wide{0.0, 0.0, 1e12, 10.0};
  auto dynamic = GridIndex::BuildDynamic(wide, 1.0);
  ASSERT_FALSE(dynamic.ok());
  EXPECT_TRUE(dynamic.status().IsInvalidArgument())
      << dynamic.status().ToString();
  auto stripes = ShardMap::Build(wide, 1.0, 4);
  ASSERT_FALSE(stripes.ok());
  EXPECT_TRUE(stripes.status().IsInvalidArgument());
  // Each axis within the cap, but 4e6 x 4e6 cells in all: refused before
  // the counters are allocated.
  auto square = GridIndex::Build({{0.0, 0.0}, {4e6, 4e6}}, 1.0);
  ASSERT_FALSE(square.ok());
  EXPECT_TRUE(square.status().IsInvalidArgument())
      << square.status().ToString();
  auto square_dynamic =
      GridIndex::BuildDynamic(Rect{0.0, 0.0, 4e6, 4e6}, 1.0);
  ASSERT_FALSE(square_dynamic.ok());
  EXPECT_TRUE(square_dynamic.status().IsInvalidArgument());
  EXPECT_TRUE(CheckCellCount(4096, 4096).ok());
  EXPECT_TRUE(CheckCellCount(kMaxCells, 1).ok());
  EXPECT_FALSE(CheckCellCount(4096, 4097).ok());
  // A NaN or infinite extent is refused too.
  EXPECT_FALSE(CellsPerAxis(std::nan(""), 1.0).ok());
  EXPECT_FALSE(CellsPerAxis(HUGE_VAL, 1.0).ok());

  // At and just under the cap the count is exact; one cell more fails.
  const double cap = static_cast<double>(kMaxCellsPerAxis);
  EXPECT_EQ(CellsPerAxis(cap - 1.0, 1.0).value(), kMaxCellsPerAxis);
  EXPECT_FALSE(CellsPerAxis(cap, 1.0).ok());
  EXPECT_EQ(CellsPerAxis(0.0, 1.0).value(), 1);
  EXPECT_EQ(CellsPerAxis(99.9, 10.0).value(), 10);
  EXPECT_EQ(CellsPerAxis(100.0, 10.0).value(), 11);
  // The modest grids every workload builds are unchanged.
  auto world = GridIndex::BuildDynamic(Rect{0.0, 0.0, 500.0, 500.0}, 0.5);
  ASSERT_TRUE(world.ok());
}

}  // namespace
}  // namespace geo
}  // namespace ltc
