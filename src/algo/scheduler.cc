#include "algo/scheduler.h"

#include "common/string_util.h"

namespace ltc {
namespace algo {

StatusOr<std::int64_t> DriveOnline(const model::ProblemInstance& instance,
                                   const model::EligibilityIndex& index,
                                   OnlineScheduler* scheduler) {
  LTC_RETURN_IF_ERROR(instance.Validate());
  if (&index.instance() != &instance) {
    return Status::InvalidArgument(
        "eligibility index was built for a different instance");
  }
  LTC_RETURN_IF_ERROR(scheduler->InitStreaming(instance));
  std::vector<model::TaskId> eligible;
  std::vector<model::WorkerIndex> worker(1);
  const std::vector<const std::vector<model::TaskId>*> candidates{&eligible};
  std::vector<OnlineScheduler::StreamCommit> commits;
  std::int64_t workers_seen = 0;
  for (const model::Worker& w : instance.workers) {
    if (scheduler->Done()) break;
    // Sorted: keeps candidate order (and thus seeded Random's picks)
    // independent of the spatial index's internal cell layout.
    index.EligibleTasksSorted(w, &eligible);
    worker[0] = w.index;
    LTC_RETURN_IF_ERROR(
        scheduler->OnBatchWithCandidates(worker, candidates, &commits));
    commits.clear();  // the arrangement records every commitment
    ++workers_seen;
  }
  LTC_RETURN_IF_ERROR(scheduler->OnStreamEnd(&commits));
  return workers_seen;
}

void FillArrangementStats(const model::Arrangement& arrangement,
                          ScheduleStats* stats) {
  stats->assignments = arrangement.size();
  stats->total_acc_star = 0.0;
  for (const model::Assignment& a : arrangement.assignments()) {
    stats->total_acc_star += a.acc_star;
  }
  stats->workers_used = 0;
  for (model::WorkerIndex w = 1; w <= arrangement.MaxWorkerIndex(); ++w) {
    if (arrangement.Load(w) > 0) ++stats->workers_used;
  }
}

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
  // Acc* = (2 Acc - 1)^2 lies in [0, 1]; the negated form also rejects NaN.
  if (!(acc >= 0.0 && acc <= 1.0)) {
    return Status::InvalidArgument("snapshot: acc_star outside [0, 1]: " +
                                   line);
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
