#include "svc/recoverable.h"

#include <sys/stat.h>

#include <cerrno>
#include <cstring>
#include <utility>

#include "common/fault_points.h"
#include "model/accuracy.h"

namespace ltc {
namespace svc {

namespace {

constexpr char kWalName[] = "wal.events";
constexpr char kSnapshotDir[] = "snapshots";

Status EnsureDir(const std::string& dir) {
  struct stat st;
  if (::stat(dir.c_str(), &st) == 0) {
    if (!S_ISDIR(st.st_mode)) {
      return Status::InvalidArgument("state dir " + dir +
                                     " exists but is not a directory");
    }
    return Status::OK();
  }
  if (::mkdir(dir.c_str(), 0755) != 0 && errno != EEXIST) {
    return Status::IOError("mkdir " + dir + ": " + std::strerror(errno));
  }
  return Status::OK();
}

}  // namespace

StatusOr<std::unique_ptr<RecoverableService>> RecoverableService::Open(
    const io::EventLog& header, const Options& options) {
  if (options.state_dir.empty()) {
    return Status::InvalidArgument("state_dir must be set");
  }
  if (options.snapshot_every < 0) {
    return Status::InvalidArgument("snapshot_every must be >= 0");
  }
  if (options.snapshot_retain < 1) {
    return Status::InvalidArgument("snapshot_retain must be >= 1");
  }
  LTC_RETURN_IF_ERROR(ValidateStreamOptions(options.stream));
  LTC_RETURN_IF_ERROR(EnsureDir(options.state_dir));

  std::unique_ptr<RecoverableService> svc(new RecoverableService(options));
  LTC_ASSIGN_OR_RETURN(
      SnapshotStore store,
      SnapshotStore::Open(options.state_dir + "/" + kSnapshotDir));
  svc->snapshots_ = std::make_unique<SnapshotStore>(std::move(store));

  const std::string wal_path = options.state_dir + "/" + kWalName;
  io::WalRecovery rec;
  auto opened = io::EventLogWriter::OpenForAppend(wal_path, &rec, options.wal);
  if (opened.ok()) {
    // Recovery path. The WAL's header is authoritative: it was written from
    // the same configuration, and its accuracy model parameters are exactly
    // what the interrupted engine ran under.
    svc->wal_ = std::move(opened).value();
    svc->header_ = rec.log;
    svc->header_.events.clear();
    if (options.metric != nullptr && svc->header_.accuracy != nullptr) {
      // The WAL header carries accuracy parameters, not the metric object;
      // rebind so the recovered engine measures distance like the original.
      LTC_ASSIGN_OR_RETURN(
          svc->header_.accuracy,
          model::RebindMetric(*svc->header_.accuracy, options.metric));
    }
    svc->recovery_.recovered = true;
    svc->recovery_.wal_records =
        static_cast<std::int64_t>(rec.log.events.size());
    svc->recovery_.wal_truncated_bytes = rec.truncated_bytes;

    LTC_ASSIGN_OR_RETURN(SnapshotStore::Loaded loaded,
                         svc->snapshots_->LoadLatest());
    svc->recovery_.snapshots_discarded = loaded.discarded;
    if (loaded.found &&
        loaded.events_applied <= svc->recovery_.wal_records) {
      LTC_ASSIGN_OR_RETURN(
          svc->engine_,
          ShardedStreamEngine::Restore(svc->header_, options.stream,
                                       loaded.engine_state));
      // The snapshot's clock must be the time of the last WAL event it
      // covers (0 for none): a CRC-valid snapshot whose clock disagrees
      // would make the suffix replay fail on every restart.
      const double wal_clock =
          loaded.events_applied == 0
              ? 0.0
              : rec.log.events[static_cast<std::size_t>(
                                   loaded.events_applied - 1)]
                    .time;
      if (svc->engine_->last_event_time() == wal_clock) {
        svc->events_applied_ = loaded.events_applied;
        svc->recovery_.snapshot_events = loaded.events_applied;
      } else {
        svc->engine_.reset();
      }
    }
    if (svc->engine_ == nullptr) {
      // No valid snapshot — or one claiming more events than the WAL holds,
      // which the flush-before-snapshot ordering forbids, or one whose clock
      // disagrees with the WAL, so it cannot be trusted either. Cold start +
      // full WAL replay.
      if (loaded.found) ++svc->recovery_.snapshots_discarded;
      LTC_ASSIGN_OR_RETURN(
          svc->engine_,
          ShardedStreamEngine::Create(svc->header_, options.stream));
    }
    // Replay the WAL suffix the snapshot has not seen.
    for (std::int64_t i = svc->events_applied_;
         i < svc->recovery_.wal_records; ++i) {
      LTC_RETURN_IF_ERROR(
          svc->engine_->OnEvent(rec.log.events[static_cast<std::size_t>(i)]));
      ++svc->events_applied_;
      ++svc->recovery_.replayed;
    }
    return svc;
  }
  if (!opened.status().IsNotFound()) return opened.status();

  // Fresh start.
  svc->header_ = header;
  svc->header_.events.clear();
  if (options.metric != nullptr && svc->header_.accuracy != nullptr) {
    LTC_ASSIGN_OR_RETURN(
        svc->header_.accuracy,
        model::RebindMetric(*svc->header_.accuracy, options.metric));
  }
  LTC_ASSIGN_OR_RETURN(
      svc->wal_,
      io::EventLogWriter::Create(wal_path, svc->header_, options.wal));
  LTC_ASSIGN_OR_RETURN(
      svc->engine_,
      ShardedStreamEngine::Create(svc->header_, options.stream));
  return svc;
}

Status RecoverableService::Ingest(const io::Event& event) {
  if (finished_) {
    return Status::FailedPrecondition("Ingest after Finish");
  }
  if (auto action = FaultPoints::Instance().Hit("svc.ingest")) {
    return Status::Internal("injected svc.ingest fault: " + *action);
  }
  // WAL before engine: the engine must never reflect an event the WAL
  // cannot replay.
  LTC_RETURN_IF_ERROR(wal_->Append(event));
  LTC_RETURN_IF_ERROR(engine_->OnEvent(event));
  ++events_applied_;
  if (options_.snapshot_every > 0 &&
      events_applied_ % options_.snapshot_every == 0) {
    LTC_RETURN_IF_ERROR(Checkpoint());
  }
  return Status::OK();
}

Status RecoverableService::Checkpoint() {
  if (finished_) {
    return Status::FailedPrecondition("Checkpoint after Finish");
  }
  // Flush (and fsync) the WAL first so the snapshot never claims events the
  // durable WAL prefix is missing.
  LTC_RETURN_IF_ERROR(wal_->Flush());
  std::string state;
  LTC_RETURN_IF_ERROR(engine_->SerializeTo(&state));
  return snapshots_->Write(events_applied_, state, options_.snapshot_retain);
}

StatusOr<StreamMetrics> RecoverableService::Finish() {
  if (finished_) {
    return Status::FailedPrecondition("Finish called twice");
  }
  // Final snapshot captures the pre-Finish state: a restart replays the
  // full WAL and Finishes again, reproducing the identical log tail.
  LTC_RETURN_IF_ERROR(Checkpoint());
  LTC_ASSIGN_OR_RETURN(StreamMetrics metrics, engine_->Finish());
  LTC_RETURN_IF_ERROR(wal_->Close());
  finished_ = true;
  return metrics;
}

}  // namespace svc
}  // namespace ltc
