// Quality threshold machinery (paper Definitions 4-5).
//
// A task is completed once its accumulated Acc* reaches
//     delta = 2 ln(1 / epsilon)
// (Hoeffding bound: weighted majority voting with weights 2Acc-1 then errs
// with probability < epsilon).

#ifndef LTC_MODEL_QUALITY_H_
#define LTC_MODEL_QUALITY_H_

namespace ltc {
namespace model {

/// Floating-point slack used when comparing accumulated Acc* against delta,
/// so summation order can never flip a completed task back to incomplete.
inline constexpr double kQualityTol = 1e-9;

/// delta = 2 ln(1/epsilon), the one place the formula is written. Requires
/// 0 < epsilon < 1; ProblemInstance::Validate and the generators' config
/// checks reject any other epsilon first.
double DeltaFromEpsilon(double epsilon);

/// True once `accumulated` Acc* meets delta (with kQualityTol slack).
bool ReachedDelta(double accumulated, double delta);

}  // namespace model
}  // namespace ltc

#endif  // LTC_MODEL_QUALITY_H_
