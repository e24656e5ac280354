// Tests for geometry primitives and the grid spatial index, including
// randomized cross-checks against brute force.

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "common/random.h"
#include "geo/grid_index.h"
#include "geo/point.h"
#include "geo/rect.h"

namespace ltc {
namespace geo {
namespace {

TEST(PointTest, Distance) {
  EXPECT_DOUBLE_EQ(Distance({0, 0}, {3, 4}), 5.0);
  EXPECT_DOUBLE_EQ(Distance({1, 1}, {1, 1}), 0.0);
  EXPECT_DOUBLE_EQ(SquaredDistance({0, 0}, {3, 4}), 25.0);
}

TEST(RectTest, ContainsAndDistance) {
  Rect r{0, 0, 10, 5};
  EXPECT_TRUE(r.Contains({5, 2}));
  EXPECT_TRUE(r.Contains({0, 0}));   // closed
  EXPECT_TRUE(r.Contains({10, 5}));  // closed
  EXPECT_FALSE(r.Contains({11, 2}));
  EXPECT_DOUBLE_EQ(r.SquaredDistanceTo({5, 2}), 0.0);
  EXPECT_DOUBLE_EQ(r.SquaredDistanceTo({13, 9}), 9.0 + 16.0);
  EXPECT_DOUBLE_EQ(r.SquaredDistanceTo({-2, 2}), 4.0);
}

TEST(RectTest, BoundingBox) {
  Rect r = Rect::BoundingBox({{1, 5}, {-2, 3}, {4, -1}});
  EXPECT_DOUBLE_EQ(r.min_x, -2);
  EXPECT_DOUBLE_EQ(r.min_y, -1);
  EXPECT_DOUBLE_EQ(r.max_x, 4);
  EXPECT_DOUBLE_EQ(r.max_y, 5);
}

std::vector<std::int64_t> BruteRadius(const std::vector<Point>& pts,
                                      const Point& c, double r) {
  std::vector<std::int64_t> out;
  for (std::size_t i = 0; i < pts.size(); ++i) {
    if (SquaredDistance(pts[i], c) <= r * r) {
      out.push_back(static_cast<std::int64_t>(i));
    }
  }
  return out;
}

std::int64_t BruteNearest(const std::vector<Point>& pts, const Point& c) {
  std::int64_t best = -1;
  double best_d2 = 1e300;
  for (std::size_t i = 0; i < pts.size(); ++i) {
    const double d2 = SquaredDistance(pts[i], c);
    if (d2 < best_d2) {
      best_d2 = d2;
      best = static_cast<std::int64_t>(i);
    }
  }
  return best;
}

TEST(GridIndexTest, RejectsBadCellSize) {
  EXPECT_FALSE(GridIndex::Build({{0, 0}}, 0.0).ok());
  EXPECT_FALSE(GridIndex::Build({{0, 0}}, -1.0).ok());
}

TEST(GridIndexTest, EmptyIndex) {
  auto index = GridIndex::Build({}, 10.0);
  ASSERT_TRUE(index.ok());
  std::vector<std::int64_t> out;
  index->QueryRadius({0, 0}, 100.0, &out);
  EXPECT_TRUE(out.empty());
  EXPECT_EQ(index->Nearest({0, 0}), -1);
  EXPECT_EQ(index->CountRadius({0, 0}, 100.0), 0);
}

TEST(GridIndexTest, SinglePoint) {
  auto index = GridIndex::Build({{5, 5}}, 10.0);
  ASSERT_TRUE(index.ok());
  std::vector<std::int64_t> out;
  index->QueryRadius({5, 5}, 0.0, &out);
  EXPECT_EQ(out, std::vector<std::int64_t>{0});
  index->QueryRadius({6, 5}, 0.5, &out);
  EXPECT_TRUE(out.empty());
  EXPECT_EQ(index->Nearest({100, 100}), 0);
}

TEST(GridIndexTest, DuplicatePointsAllReturned) {
  auto index = GridIndex::Build({{1, 1}, {1, 1}, {1, 1}}, 2.0);
  ASSERT_TRUE(index.ok());
  std::vector<std::int64_t> out;
  index->QueryRadius({1, 1}, 0.0, &out);
  std::sort(out.begin(), out.end());
  EXPECT_EQ(out, (std::vector<std::int64_t>{0, 1, 2}));
  EXPECT_EQ(index->CountRadius({1, 1}, 0.0), 3);
  EXPECT_GE(index->Nearest({5, 5}), 0);
}

TEST(GridIndexTest, RadiusBoundaryInclusive) {
  auto index = GridIndex::Build({{0, 0}, {3, 4}}, 2.0);
  ASSERT_TRUE(index.ok());
  std::vector<std::int64_t> out;
  index->QueryRadius({0, 0}, 5.0, &out);  // exactly on the circle
  EXPECT_EQ(out.size(), 2u);
}

class SpatialIndexRandomTest : public ::testing::TestWithParam<int> {};

TEST_P(SpatialIndexRandomTest, GridMatchesBruteForce) {
  Rng rng(static_cast<std::uint64_t>(GetParam()));
  const int n = static_cast<int>(rng.UniformInt(1, 300));
  std::vector<Point> pts;
  // Odd seeds draw a Gaussian mixture: dense clusters put many points in
  // one cell and leave most cells empty.
  const bool clustered = GetParam() % 2 == 1;
  for (int i = 0; i < n; ++i) {
    if (clustered) {
      const double cx = rng.UniformInt(0, 3) * 30.0;
      const double cy = rng.UniformInt(0, 3) * 30.0;
      pts.push_back({cx + rng.Gaussian(0, 5), cy + rng.Gaussian(0, 5)});
    } else {
      pts.push_back({rng.Uniform(0, 100), rng.Uniform(0, 100)});
    }
  }
  auto index = GridIndex::Build(pts, rng.Uniform(0.5, 30.0));
  ASSERT_TRUE(index.ok());
  for (int q = 0; q < 30; ++q) {
    const Point c{rng.Uniform(-10, 110), rng.Uniform(-10, 110)};
    const double r = rng.Uniform(0, 40);
    std::vector<std::int64_t> got;
    index->QueryRadius(c, r, &got);
    // The grid emits cell order; compare as sets.
    std::sort(got.begin(), got.end());
    EXPECT_EQ(got, BruteRadius(pts, c, r));
    EXPECT_EQ(index->CountRadius(c, r),
              static_cast<std::int64_t>(BruteRadius(pts, c, r).size()));
    const std::int64_t nearest = index->Nearest(c);
    // Nearest may differ in id only if distances tie exactly; compare
    // distances instead of ids.
    ASSERT_GE(nearest, 0);
    EXPECT_DOUBLE_EQ(
        SquaredDistance(pts[static_cast<std::size_t>(nearest)], c),
        SquaredDistance(pts[static_cast<std::size_t>(BruteNearest(pts, c))],
                        c));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SpatialIndexRandomTest,
                         ::testing::Range(0, 10));

}  // namespace
}  // namespace geo
}  // namespace ltc
