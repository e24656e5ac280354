#include "oracles/convex_hull.h"

#include <algorithm>

namespace ltc {
namespace geo {

double Cross(const Point& a, const Point& b, const Point& c) {
  return (b.x - a.x) * (c.y - a.y) - (b.y - a.y) * (c.x - a.x);
}

std::vector<Point> ConvexHull(std::vector<Point> points) {
  std::sort(points.begin(), points.end(), [](const Point& a, const Point& b) {
    if (a.x != b.x) return a.x < b.x;
    return a.y < b.y;
  });
  points.erase(std::unique(points.begin(), points.end()), points.end());
  const std::size_t n = points.size();
  if (n <= 2) return points;

  std::vector<Point> hull(2 * n);
  std::size_t k = 0;
  // Lower chain.
  for (std::size_t i = 0; i < n; ++i) {
    while (k >= 2 && Cross(hull[k - 2], hull[k - 1], points[i]) <= 0) --k;
    hull[k++] = points[i];
  }
  // Upper chain.
  const std::size_t lower_size = k + 1;
  for (std::size_t i = n - 1; i-- > 0;) {
    while (k >= lower_size && Cross(hull[k - 2], hull[k - 1], points[i]) <= 0)
      --k;
    hull[k++] = points[i];
  }
  hull.resize(k - 1);  // last point equals the first
  return hull;
}

bool HullContains(const std::vector<Point>& hull, const Point& p) {
  if (hull.empty()) return false;
  if (hull.size() == 1) return hull[0] == p;
  if (hull.size() == 2) {
    // On-segment check.
    const double cross = Cross(hull[0], hull[1], p);
    if (cross != 0.0) return false;
    const double dot = (p.x - hull[0].x) * (hull[1].x - hull[0].x) +
                       (p.y - hull[0].y) * (hull[1].y - hull[0].y);
    const double len2 = SquaredDistance(hull[0], hull[1]);
    return dot >= 0.0 && dot <= len2;
  }
  for (std::size_t i = 0; i < hull.size(); ++i) {
    const Point& a = hull[i];
    const Point& b = hull[(i + 1) % hull.size()];
    if (Cross(a, b, p) < 0.0) return false;  // strictly right of an edge
  }
  return true;
}

}  // namespace geo
}  // namespace ltc
