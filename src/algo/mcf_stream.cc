#include "algo/mcf_stream.h"

#include <algorithm>
#include <cmath>

#include "model/quality.h"

namespace ltc {
namespace algo {

namespace {

/// Acc* values are scaled to parts-per-million before entering the integer
/// cost domain of the flow solver.
constexpr std::int64_t kCostScale = 1'000'000;

/// Lowers the held-task bound *oldest (-1: none) to task `t`.
void Hold(model::TaskId t, model::TaskId* oldest) {
  if (*oldest < 0 || t < *oldest) *oldest = t;
}

}  // namespace

Status McfStream::InitStreaming(const model::ProblemInstance& instance,
                                const StreamShardContext& shard) {
  LTC_RETURN_IF_ERROR(StartArrangement(instance, shard));
  if (options_.batch_factor <= 0.0 || options_.first_batch_factor <= 0.0) {
    return Status::InvalidArgument("MCF: batch factors must be positive");
  }

  flow::IncrementalMcmfOptions incr_options;
  incr_options.warm_start = options_.warm_start;
  incr_options.drift_check_every = options_.drift_check_every;
  incr_ = std::make_unique<flow::IncrementalMcmf>(incr_options);
  task_demand_.Reset(instance.tasks.first_id(), instance.tasks.size());
  oldest_unzeroed_ = -1;

  buf_worker_.clear();
  buf_begin_.assign(1, 0);
  buf_cand_.clear();
  buf_oldest_task_ = -1;
  first_batch_ = true;
  batches_solved_ = 0;
  augmentations_ = 0;
  return Status::OK();
}

Status McfStream::OnTaskAdded(model::TaskId task) {
  LTC_RETURN_IF_ERROR(AddArrangementTask(task));
  task_demand_.push_back(TaskDemand{});
  return Status::OK();
}

model::TaskId McfStream::OldestHeldTask() const {
  model::TaskId oldest = buf_oldest_task_;
  if (oldest_unzeroed_ >= 0) Hold(oldest_unzeroed_, &oldest);
  return oldest;
}

void McfStream::OnTasksRetired() {
  task_demand_.RetireBefore(arrangement_->first_task());
}

std::int64_t McfStream::BatchTarget() const {
  // The offline m evaluated against the tasks seen so far. Over an
  // EventLogFromInstance replay every task precedes the first worker, so
  // this is the offline batch size exactly; over a live mixed stream the
  // target simply tracks the growing task set.
  const double m_real = static_cast<double>(arrangement_->num_tasks()) *
                        std::ceil(delta_) /
                        static_cast<double>(instance_->capacity) *
                        options_.batch_factor;
  const double factor = first_batch_ ? options_.first_batch_factor : 1.0;
  return std::max<std::int64_t>(
      1, static_cast<std::int64_t>(std::floor(m_real * factor)));
}

Status McfStream::OnBatchWithCandidates(
    const std::vector<model::WorkerIndex>& workers,
    const std::vector<const std::vector<model::TaskId>*>& candidates,
    std::vector<StreamCommit>* commits) {
  if (instance_ == nullptr || !arrangement_.has_value()) {
    return Status::FailedPrecondition(
        "OnBatchWithCandidates before InitStreaming");
  }
  if (workers.size() != candidates.size()) {
    return Status::InvalidArgument("workers/candidates size mismatch");
  }
  for (std::size_t i = 0; i < workers.size(); ++i) {
    // Offline consumes *every* worker of the stream prefix into a batch,
    // eligible or not — buffer unconditionally so batch boundaries match.
    buf_worker_.push_back(workers[i]);
    const std::vector<model::TaskId>& cand = *candidates[i];
    if (!cand.empty()) Hold(cand.front(), &buf_oldest_task_);
    buf_cand_.insert(buf_cand_.end(), cand.begin(), cand.end());
    buf_begin_.push_back(buf_cand_.size());
    if (static_cast<std::int64_t>(buf_worker_.size()) >= BatchTarget()) {
      LTC_RETURN_IF_ERROR(FlushInternalBatch(commits));
    }
  }
  return Status::OK();
}

Status McfStream::OnStreamEnd(std::vector<StreamCommit>* commits) {
  if (instance_ == nullptr || !arrangement_.has_value()) {
    return Status::FailedPrecondition("OnStreamEnd before InitStreaming");
  }
  // The final partial batch — offline's last loop iteration, where
  // take = min(m, workers remaining).
  return FlushInternalBatch(commits);
}

Status McfStream::Serialize(StateArchive& ar) {
  LTC_RETURN_IF_ERROR(OnlineScheduler::Serialize(ar));
  // Buffered workers ascend (arrival order), and so do their candidates.
  model::WorkerIndex last = 0;
  for (std::size_t p = 0; ar.Repeats("b", p, buf_worker_.size()); ++p) {
    model::WorkerIndex w = ar.writing() ? buf_worker_[p] : 0;
    const std::size_t end = ar.writing() ? buf_begin_[p + 1] : 0;
    // A held worker is resident: its record is read at the flush. So are
    // the tasks its candidates name (OldestHeldTask).
    LTC_RETURN_IF_ERROR(
        ar.Record("b",
                  Index(&w, std::max(last + 1, instance_->workers.first_id()),
                        instance_->last_worker()),
                  List(&buf_cand_, buf_begin_[p], end,
                       instance_->tasks.first_id(),
                       arrangement_->num_tasks() - 1)));
    if (ar.reading()) {
      buf_worker_.push_back(w);
      if (buf_cand_.size() > buf_begin_[p]) {
        Hold(buf_cand_[buf_begin_[p]], &buf_oldest_task_);
      }
      buf_begin_.push_back(buf_cand_.size());
    }
    last = w;
  }
  return ar.Record("m", Bit(&first_batch_), NonNeg(&batches_solved_));
}

Status McfStream::FlushInternalBatch(std::vector<StreamCommit>* commits) {
  const std::size_t nb = buf_worker_.size();
  if (nb == 0) return Status::OK();
  if (arrangement_->AllCompleted()) {
    // Offline stops consuming workers at completion; the stream keeps
    // flowing, so late arrivals drain unassigned.
    buf_worker_.clear();
    buf_begin_.assign(1, 0);
    buf_cand_.clear();
    buf_oldest_task_ = -1;
    return Status::OK();
  }

  // ---- Lines 5-6 of Algorithm 1: refresh demands. ----
  // Demand cap = ceil(delta - S[t]) is re-asserted from the arrangement
  // each batch (top-ups contribute quality outside the flow, so the
  // solver's own frozen-consumption bookkeeping undershoots). A task that
  // completed since its node was created gets its deficit zeroed exactly
  // once and never reopens. A retired task has none left to zero: it had
  // no node, or this loop zeroed it before it retired (OldestHeldTask).
  for (model::TaskId t = arrangement_->first_task();
       t < arrangement_->num_tasks(); ++t) {
    TaskDemand& node = task_demand_.at(t);
    if (arrangement_->TaskCompleted(t)) {
      if (node.right >= 0 && !node.closed) {
        LTC_RETURN_IF_ERROR(incr_->SetDeficit(node.right, 0));
        node.closed = true;
      }
      continue;
    }
    const double remaining = arrangement_->Remaining(t);
    const auto demand = std::max<std::int64_t>(
        1,
        static_cast<std::int64_t>(std::ceil(remaining - model::kQualityTol)));
    if (node.right < 0) {
      node.right = incr_->AddRight(demand);
    } else {
      LTC_RETURN_IF_ERROR(incr_->SetDeficit(node.right, demand));
    }
  }
  oldest_unzeroed_ = -1;

  // ---- Worker supply and arcs. ----
  // Arc costs: -Acc* (scaled); optionally plus an arrival-position epsilon
  // that is strictly smaller than one Acc* quantum, so it only breaks ties
  // (the MCF objective cannot see indices; McfLtcOptions::index_tie_break).
  // Acc* is evaluated exactly once per eligible pair here; every later
  // phase reads pair_acc_. Candidates were gathered at admission; tasks
  // completed by batches flushed since are re-filtered here, and workers
  // with no open candidate never enter the solver.
  const std::int64_t tie_scale =
      options_.index_tie_break ? static_cast<std::int64_t>(nb) + 1 : 1;
  pair_begin_.assign(nb + 1, 0);
  pair_task_.clear();
  pair_acc_.clear();
  pair_arc_.clear();
  batch_left_.assign(nb, -1);
  for (std::size_t p = 0; p < nb; ++p) {
    pair_begin_[p] = pair_task_.size();
    const model::WorkerIndex w = buf_worker_[p];
    for (std::size_t k = buf_begin_[p]; k < buf_begin_[p + 1]; ++k) {
      const model::TaskId t = buf_cand_[k];
      if (arrangement_->TaskCompleted(t)) continue;
      if (batch_left_[p] < 0) {
        batch_left_[p] = incr_->AddLeft(instance_->capacity);
      }
      const double acc_star = instance_->AccStar(w, t);
      const auto scaled =
          static_cast<std::int64_t>(std::llround(acc_star * kCostScale));
      const std::int64_t cost =
          -scaled * tie_scale +
          (options_.index_tie_break ? static_cast<std::int64_t>(p) : 0);
      LTC_ASSIGN_OR_RETURN(
          const flow::ArcId arc,
          incr_->AddArc(batch_left_[p], task_demand_.at(t).right, 1, cost));
      pair_task_.push_back(t);
      pair_acc_.push_back(acc_star);
      pair_arc_.push_back(arc);
    }
  }
  pair_begin_[nb] = pair_task_.size();

  LTC_ASSIGN_OR_RETURN(const flow::McmfResult mcmf, incr_->Solve());
  ++batches_solved_;
  augmentations_ += mcmf.iterations;

  // ---- Line 7: extract M' and update S. ----
  // The pair -> arc map renders the flow directly; no adjacency walk and
  // no searches over batch task lists.
  const std::size_t first_commit = commits->size();
  batch_load_.assign(nb, 0);
  pair_assigned_.assign(pair_task_.size(), 0);
  for (std::size_t p = 0; p < nb; ++p) {
    const model::WorkerIndex w = buf_worker_[p];
    for (std::size_t k = pair_begin_[p]; k < pair_begin_[p + 1]; ++k) {
      if (incr_->ArcFlow(pair_arc_[k]) <= 0) continue;
      const model::TaskId t = pair_task_[k];
      arrangement_->Add(w, t, pair_acc_[k]);
      commits->push_back(StreamCommit{w, t});
      ++batch_load_[p];
      pair_assigned_[k] = 1;
    }
  }

  // ---- Lines 8-15: greedy top-up of spare capacity. ----
  for (std::size_t p = 0; p < nb; ++p) {
    const std::int32_t spare = instance_->capacity - batch_load_[p];
    if (spare <= 0) continue;
    if (arrangement_->AllCompleted()) break;
    const model::WorkerIndex w = buf_worker_[p];
    top_up_.Reset(static_cast<std::size_t>(spare));
    for (std::size_t k = pair_begin_[p]; k < pair_begin_[p + 1]; ++k) {
      if (pair_assigned_[k]) continue;
      const model::TaskId t = pair_task_[k];
      if (arrangement_->TaskCompleted(t)) continue;
      top_up_.Push(pair_acc_[k], t);
    }
    for (const auto& item : top_up_.TakeDescending()) {
      const auto t = static_cast<model::TaskId>(item.id);
      arrangement_->Add(w, t, item.score);
      commits->push_back(StreamCommit{w, t});
    }
  }

  // Every task this batch completed still carries its demand node's deficit
  // until the next refresh zeroes it.
  for (std::size_t k = first_commit; k < commits->size(); ++k) {
    const model::TaskId t = (*commits)[k].task;
    if (arrangement_->TaskCompleted(t)) Hold(t, &oldest_unzeroed_);
  }

  // The batch's workers leave the platform: retire their supply nodes with
  // deliveries frozen. This is what keeps the next solve warm — no left
  // carries flow across batches, so the feasibility scan always passes.
  for (std::size_t p = 0; p < nb; ++p) {
    if (batch_left_[p] < 0) continue;
    LTC_RETURN_IF_ERROR(incr_->RetireLeft(batch_left_[p]));
  }

  buf_worker_.clear();
  buf_begin_.assign(1, 0);
  buf_cand_.clear();
  buf_oldest_task_ = -1;
  first_batch_ = false;
  return Status::OK();
}

}  // namespace algo
}  // namespace ltc
