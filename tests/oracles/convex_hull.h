// Test oracle: convex hull (Andrew's monotone chain). The paper samples
// real-dataset task locations "within the convex region of the workers"; the
// Foursquare-like generator uses check-in anchoring instead (see DESIGN.md),
// and tests use this module to verify the resulting tasks indeed lie in the
// workers' hull.

#ifndef LTC_ORACLES_CONVEX_HULL_H_
#define LTC_ORACLES_CONVEX_HULL_H_

#include <vector>

#include "geo/point.h"

namespace ltc {
namespace geo {

/// Convex hull of `points` in counter-clockwise order, starting from the
/// lexicographically smallest point. Collinear boundary points are dropped.
/// Degenerate inputs (<= 2 distinct points) return the distinct points.
std::vector<Point> ConvexHull(std::vector<Point> points);

/// True if `p` lies inside or on the boundary of the convex polygon `hull`
/// (counter-clockwise order, as produced by ConvexHull).
bool HullContains(const std::vector<Point>& hull, const Point& p);

/// Twice the signed area of triangle (a, b, c); > 0 for counter-clockwise.
double Cross(const Point& a, const Point& b, const Point& c);

}  // namespace geo
}  // namespace ltc

#endif  // LTC_ORACLES_CONVEX_HULL_H_
