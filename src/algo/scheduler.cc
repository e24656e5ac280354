#include "algo/scheduler.h"

#include "common/string_util.h"

namespace ltc {
namespace algo {

void SerializeAssignments(const model::Arrangement& arrangement,
                          std::string* out) {
  for (const model::Assignment& a : arrangement.assignments()) {
    out->append(StrFormat("a %lld %lld %.17g\n",
                          static_cast<long long>(a.worker),
                          static_cast<long long>(a.task), a.acc_star));
  }
}

StatusOr<model::Assignment> RestoreAssignment(
    const std::string& line, const model::ProblemInstance& instance,
    model::Arrangement* arrangement) {
  const std::vector<std::string> f = Split(line, ' ');
  std::int64_t w = 0;
  std::int64_t t = 0;
  double acc = 0.0;
  if (f.size() != 4 || f[0] != "a" || !ParseInt64(f[1], &w) ||
      !ParseInt64(f[2], &t) || !ParseDouble(f[3], &acc)) {
    return Status::InvalidArgument("snapshot: bad assignment line: " + line);
  }
  if (w < 1 || w > static_cast<std::int64_t>(instance.workers.size())) {
    return Status::OutOfRange("snapshot: worker index out of range: " + line);
  }
  if (t < 0 || t >= arrangement->num_tasks()) {
    return Status::OutOfRange("snapshot: task id out of range: " + line);
  }
  const model::Assignment a{static_cast<model::WorkerIndex>(w),
                            static_cast<model::TaskId>(t), acc};
  arrangement->Add(a.worker, a.task, a.acc_star);
  return a;
}

}  // namespace algo
}  // namespace ltc
