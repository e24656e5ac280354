#include "model/arrangement.h"

#include <algorithm>
#include <set>

#include "common/state_archive.h"
#include "common/string_util.h"
#include "model/quality.h"

namespace ltc {
namespace model {

Arrangement::Arrangement(std::int64_t num_tasks, double delta,
                         TaskId first_task)
    : delta_(delta), completed_tasks_(first_task) {
  accumulated_.Reset(first_task,
                     static_cast<std::size_t>(num_tasks - first_task), 0.0);
  if (delta_ <= kQualityTol) completed_tasks_ = num_tasks;
}

void Arrangement::Add(WorkerIndex worker, TaskId task, double acc_star) {
  double& s = accumulated_.at(task);
  const bool was_completed = ReachedDelta(s, delta_);
  s += acc_star;
  if (!was_completed && ReachedDelta(s, delta_)) {
    ++completed_tasks_;
  }
  total_acc_star_ += acc_star;
  assignments_.push_back(Assignment{worker, task, acc_star});
  // A retired worker has no load slot left; only a faulty scheduler names
  // one, and ValidateCommitRound reports it.
  if (worker >= load_.first_id()) {
    load_.GrowTo(worker + 1, 0);
    if (load_.at(worker)++ == 0) ++workers_used_;
  }
  max_worker_index_ = std::max(max_worker_index_, worker);
}

TaskId Arrangement::AddTask() {
  const TaskId id = accumulated_.end_id();
  accumulated_.push_back(0.0);
  // Mirror the constructor's degenerate-delta handling: a task whose target
  // is already met counts as completed from the start.
  if (delta_ <= kQualityTol) ++completed_tasks_;
  return id;
}

double Arrangement::Remaining(TaskId t) const {
  return std::max(0.0, delta_ - accumulated(t));
}

std::int32_t Arrangement::Load(WorkerIndex worker) const {
  return load_.contains(worker) ? load_.at(worker) : 0;
}

void Arrangement::RetireWorkersBefore(WorkerIndex worker) {
  if (worker <= load_.first_id()) return;
  load_.RetireBefore(worker);
  assignments_.erase(
      std::remove_if(assignments_.begin(), assignments_.end(),
                     [worker](const Assignment& a) { return a.worker < worker; }),
      assignments_.end());
}

void Arrangement::RetireTasksBefore(TaskId task) {
  accumulated_.RetireBefore(task);
}

Status Arrangement::Serialize(StateArchive& ar, WorkerIndex first,
                              WorkerIndex last) {
  if (ar.writing() && !assignments_.empty()) {
    return Status::FailedPrecondition(
        "arrangement snapshot lists assignments: their workers are not "
        "retired");
  }
  LTC_RETURN_IF_ERROR(ar.Record("arr", Index(&workers_used_, 0, last),
                                Index(&max_worker_index_, 0, last),
                                NonNeg(&total_acc_star_)));
  for (double& s : accumulated_) {
    LTC_RETURN_IF_ERROR(ar.Record("s", NonNeg(&s)));
  }
  if (ar.reading()) {
    completed_tasks_ =
        first_task() + std::count_if(accumulated_.begin(), accumulated_.end(),
                                   [this](double s) {
                                     return ReachedDelta(s, delta_);
                                   });
    RetireWorkersBefore(first);
  }
  return Status::OK();
}

namespace {

/// The per-assignment checks both validators share: ranges (`a.worker`
/// resident), eligibility and the recorded Acc*, which must match the
/// model's, *expected.
Status CheckAssignment(const ProblemInstance& instance, const Assignment& a,
                       double* expected) {
  if (!instance.resident(a.worker)) {
    return Status::OutOfRange(
        StrFormat("assignment references worker %d outside %d..%d", a.worker,
                  instance.workers.first_id(), instance.last_worker()));
  }
  if (!instance.task_resident(a.task)) {
    return Status::OutOfRange(
        StrFormat("assignment references task %d outside %d..%lld", a.task,
                  instance.tasks.first_id(),
                  static_cast<long long>(instance.num_tasks() - 1)));
  }
  if (!instance.Eligible(a.worker, a.task)) {
    return Status::FailedPrecondition(StrFormat(
        "ineligible assignment (worker %d, task %d): Acc=%.4f < acc_min=%g",
        a.worker, a.task, instance.Acc(a.worker, a.task), instance.acc_min));
  }
  *expected = instance.AccStar(a.worker, a.task);
  if (!AlmostEqual(*expected, a.acc_star, 1e-9)) {
    return Status::Internal(StrFormat(
        "recorded Acc*=%.12f disagrees with model %.12f for (w%d, t%d)",
        a.acc_star, *expected, a.worker, a.task));
  }
  return Status::OK();
}

Status DuplicatePair(WorkerIndex worker, TaskId task) {
  return Status::FailedPrecondition(
      StrFormat("duplicate assignment (worker %d, task %d)", worker, task));
}

Status OverCapacity(WorkerIndex worker, std::int32_t capacity) {
  return Status::FailedPrecondition(
      StrFormat("worker %d exceeds capacity K=%d", worker, capacity));
}

}  // namespace

Status ValidateArrangement(const ProblemInstance& instance,
                           const Arrangement& arrangement,
                           bool require_completion) {
  const double delta = instance.Delta();
  // Scratch over the instance's windows, which need not start at the
  // first ids.
  IdWindow<double, TaskId> recomputed;
  recomputed.Reset(instance.tasks.first_id(), instance.tasks.size(), 0.0);
  IdWindow<std::int32_t, WorkerIndex> load;
  load.Reset(instance.workers.first_id(), instance.workers.size(), 0);
  std::set<std::pair<WorkerIndex, TaskId>> seen;

  for (const Assignment& a : arrangement.assignments()) {
    double expected = 0.0;
    LTC_RETURN_IF_ERROR(CheckAssignment(instance, a, &expected));
    if (!seen.insert({a.worker, a.task}).second) {
      return DuplicatePair(a.worker, a.task);
    }
    if (++load.at(a.worker) > instance.capacity) {
      return OverCapacity(a.worker, instance.capacity);
    }
    recomputed.at(a.task) += expected;
  }

  for (TaskId t = recomputed.first_id(); t < recomputed.end_id(); ++t) {
    const double sum = recomputed.at(t);
    const double tracked = arrangement.accumulated(t);
    if (!AlmostEqual(sum, tracked, 1e-6)) {
      return Status::Internal(
          StrFormat("task %d accumulator drifted: recomputed %.9f vs "
                    "tracked %.9f",
                    t, sum, tracked));
    }
    if (require_completion && !ReachedDelta(sum, delta)) {
      return Status::FailedPrecondition(
          StrFormat("task %d incomplete: sum Acc* = %.6f < delta = %.6f", t,
                    sum, delta));
    }
  }
  return Status::OK();
}

Status ValidateCommitRound(const ProblemInstance& instance,
                           const Arrangement& arrangement, std::size_t first) {
  const std::vector<Assignment>& made = arrangement.assignments();
  std::vector<std::pair<WorkerIndex, TaskId>> pairs;
  pairs.reserve(made.size() - first);
  for (std::size_t i = first; i < made.size(); ++i) {
    double expected = 0.0;
    LTC_RETURN_IF_ERROR(CheckAssignment(instance, made[i], &expected));
    pairs.emplace_back(made[i].worker, made[i].task);
  }
  // Sorted, each worker's commitments of the round form one run.
  std::sort(pairs.begin(), pairs.end());
  for (std::size_t begin = 0, end = 0; begin < pairs.size(); begin = end) {
    const WorkerIndex w = pairs[begin].first;
    for (end = begin + 1; end < pairs.size() && pairs[end].first == w; ++end) {
      if (pairs[end].second == pairs[end - 1].second) {
        return DuplicatePair(w, pairs[end].second);
      }
    }
    const auto run = static_cast<std::int32_t>(end - begin);
    if (run > instance.capacity) return OverCapacity(w, instance.capacity);
    if (arrangement.Load(w) != run) {
      return Status::FailedPrecondition(StrFormat(
          "worker %d committed again after its round: load %d, %d this round",
          w, arrangement.Load(w), run));
    }
  }
  return Status::OK();
}

}  // namespace model
}  // namespace ltc
