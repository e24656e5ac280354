#include "model/quality.h"

#include <cmath>

namespace ltc {
namespace model {

double DeltaFromEpsilon(double epsilon) {
  return 2.0 * std::log(1.0 / epsilon);
}

bool ReachedDelta(double accumulated, double delta) {
  return accumulated >= delta - kQualityTol;
}

}  // namespace model
}  // namespace ltc
