// The crash-recoverable service core (DESIGN.md §11): a ShardedStreamEngine
// wrapped in a write-ahead log and periodic snapshots, with a recovery path
// that restores the latest valid snapshot and replays the WAL suffix.
//
// Determinism-under-restart invariant: for a fixed (header, StreamOptions)
// configuration, the assignment log an interrupted-and-recovered service
// emits for the durable event prefix is byte-identical to the log of a
// service that lived through the whole stream. Everything here serves that
// invariant:
//
//   * WAL first. Ingest appends the event to the WAL before the engine sees
//     it, so the engine never reflects an event the WAL cannot replay.
//   * Snapshots never outrun the WAL. Checkpoint() flushes (and fsyncs) the
//     WAL before writing the snapshot, so snapshot.events_applied <= durable
//     WAL records always holds; a snapshot claiming more events than the WAL
//     has is treated as invalid and recovery falls back to full replay.
//   * Snapshots only at event boundaries. The engine's per-round pending
//     buffers are empty between Ingest calls; SerializeTo enforces it.
//
// Crash model: destroying the service without Finish() models a crash — the
// WAL's unflushed group-commit window is lost (io/wal.h), snapshots already
// landed stay. Recovery loses at most that window; every *durable* admitted
// event is replayed exactly once.

#ifndef LTC_SVC_RECOVERABLE_H_
#define LTC_SVC_RECOVERABLE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "geo/metric.h"
#include "io/event_log.h"
#include "io/wal.h"
#include "svc/sharded_engine.h"
#include "svc/snapshot.h"
#include "svc/stream_engine.h"

namespace ltc {
namespace svc {

/// \brief A ShardedStreamEngine with WAL + snapshot durability.
class RecoverableService {
 public:
  struct Options {
    /// Directory holding wal.events and snapshots/ (created if missing).
    std::string state_dir;
    /// Engine configuration. The world rectangle is used as configured —
    /// a durable service cannot peek at future events to size its grid, so
    /// the operator fixes the world up front (arrivals outside it clamp
    /// into boundary cells, which stays correct; geo/grid_index.h).
    StreamOptions stream;
    io::WalOptions wal;
    /// Snapshot every N applied events (0 = only the final Finish-time
    /// snapshot).
    std::int64_t snapshot_every = 0;
    /// Snapshots kept on disk, at least 1 (see SnapshotStore::Write).
    int snapshot_retain = 2;
    /// Non-null: rebind the header's accuracy model onto this distance
    /// metric (model::RebindMetric) before building the engine. The WAL
    /// header serialises accuracy *parameters* only, so a road-metric
    /// service must re-supply its metric on every Open — recovery included
    /// — for the determinism-under-restart invariant to hold.
    std::shared_ptr<const geo::Metric> metric;
  };

  /// What Open found and did.
  struct RecoveryInfo {
    /// True when an existing WAL was recovered (false = fresh start).
    bool recovered = false;
    /// Durable events in the recovered WAL.
    std::int64_t wal_records = 0;
    /// Events already reflected by the restored snapshot (0 = cold start or
    /// full replay).
    std::int64_t snapshot_events = 0;
    /// WAL suffix events replayed on top of the snapshot.
    std::int64_t replayed = 0;
    /// Torn/corrupt snapshots skipped before a valid one was found.
    int snapshots_discarded = 0;
    /// Bytes of torn WAL tail truncated (io::WalRecovery).
    std::int64_t wal_truncated_bytes = 0;
  };

  /// Opens (or recovers) the service. `header` supplies the stream's
  /// instance parameters for a fresh start; on recovery the WAL's own
  /// header is authoritative (it was written from the same configuration).
  /// A negative snapshot_every or wal.group_commit, snapshot_retain < 1 or
  /// bad stream options are InvalidArgument before state_dir is touched.
  static StatusOr<std::unique_ptr<RecoverableService>> Open(
      const io::EventLog& header, const Options& options);

  RecoverableService(const RecoverableService&) = delete;
  RecoverableService& operator=(const RecoverableService&) = delete;

  /// Admits one event: WAL append, engine apply, periodic checkpoint.
  /// Fault point "svc.ingest" fires before the append.
  Status Ingest(const io::Event& event);

  /// Forces a snapshot of the current state (WAL flushed first).
  Status Checkpoint();

  /// Orderly shutdown: WAL flush + final snapshot of the pre-Finish state
  /// (a restart replays the full WAL and Finishes again, reproducing the
  /// same log), then engine Finish, then WAL close.
  StatusOr<StreamMetrics> Finish();

  /// Events applied to the engine since the stream began (recovered +
  /// ingested).
  std::int64_t events_applied() const { return events_applied_; }

  const RecoveryInfo& recovery() const { return recovery_; }
  const ShardedStreamEngine& engine() const { return *engine_; }
  /// The merged assignment log (complete from stream start, including the
  /// prefix restored from the snapshot).
  const std::vector<StreamAssignment>& assignments() const {
    return engine_->assignments();
  }
  /// The event-log header the service runs under (the WAL's on recovery).
  const io::EventLog& header() const { return header_; }

 private:
  explicit RecoverableService(Options options)
      : options_(std::move(options)) {}

  Options options_;
  io::EventLog header_;  // events empty; header parameters only
  std::unique_ptr<io::EventLogWriter> wal_;
  std::unique_ptr<SnapshotStore> snapshots_;
  std::unique_ptr<ShardedStreamEngine> engine_;
  std::int64_t events_applied_ = 0;
  RecoveryInfo recovery_;
  bool finished_ = false;
};

}  // namespace svc
}  // namespace ltc

#endif  // LTC_SVC_RECOVERABLE_H_
