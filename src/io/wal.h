// Write-ahead logging for the streaming service (DESIGN.md §11).
//
// The WAL *is* an ltc-events v1 file: the header block (sans the optional
// "events N" count line, unknowable at open time) followed by one
// newline-terminated record per admitted event, appended in admission order.
// Because the on-disk format is the replay format, recovery is just
// ParseEventLog over the durable prefix — no second codec to drift.
//
// Durability model:
//   * Append() buffers; every `group_commit` records the buffer is written
//     and fsync'd (the group-commit window). Admission ACKs are decoupled
//     from durability on purpose: a crash loses at most the current window,
//     and the recovery contract is prefix-consistency, not zero loss.
//   * A crash can tear the final record (partial write). On open-for-append
//     the writer truncates everything after the last '\n' — the documented
//     recovery rule, pinned by io_test — and re-parses the remaining prefix.
//   * The destructor deliberately does NOT flush: destroying an unclosed
//     writer models a crash (buffered records vanish), which is exactly what
//     svc_recovery_test relies on. Orderly shutdown calls Close().
//
// Fault points (common/fault_points.h): "wal.append", "wal.flush",
// "wal.fsync" — armed with "fail" they turn the site into an IOError;
// armed with "exitNNN" they crash the process there.

#ifndef LTC_IO_WAL_H_
#define LTC_IO_WAL_H_

#include <cstdint>
#include <memory>
#include <string>

#include "common/status.h"
#include "io/event_log.h"

namespace ltc {
namespace io {

struct WalOptions {
  /// Records per group-commit window: after every `group_commit` appended
  /// records the buffer is flushed and fsync'd. 1 = synchronous per-record
  /// durability; 0 = flush only on explicit Flush()/Close().
  std::int64_t group_commit = 64;
  /// fsync(2) on flush. Off trades the durability guarantee for speed
  /// (benchmarks on throwaway state dirs).
  bool fsync = true;
};

/// What OpenForAppend found on disk.
struct WalRecovery {
  /// Header parameters plus every durable event, in order.
  EventLog log;
  /// Bytes of torn final record removed before parsing (0 = clean file).
  std::int64_t truncated_bytes = 0;
};

/// \brief Append-only ltc-events writer with group-commit durability.
///
/// Single-threaded by contract: the serving loop appends from the engine
/// thread only (the ingest queue is the cross-thread boundary — see
/// common/bounded_queue.h), so the writer carries no mutex and no
/// LTC_GUARDED_BY annotations (DESIGN.md §14).
class EventLogWriter {
 public:
  /// Creates (or truncates) the WAL at `path` and durably writes the header
  /// block of `header` (its events are ignored). The header is fsync'd
  /// before Create returns, so a WAL on disk always parses.
  static StatusOr<std::unique_ptr<EventLogWriter>> Create(
      const std::string& path, const EventLog& header, WalOptions options = {});

  /// Opens an existing WAL for append: truncates a torn final record (bytes
  /// after the last '\n'), parses the durable prefix into *recovery, and
  /// returns a writer positioned at the end. NotFound when no file exists
  /// (callers fall back to Create); IOError when the durable prefix itself
  /// does not parse — that is corruption, not tearing, and must surface.
  static StatusOr<std::unique_ptr<EventLogWriter>> OpenForAppend(
      const std::string& path, WalRecovery* recovery, WalOptions options = {});

  /// Closes the file descriptor WITHOUT flushing buffered records (crash
  /// semantics; see file comment).
  ~EventLogWriter();

  EventLogWriter(const EventLogWriter&) = delete;
  EventLogWriter& operator=(const EventLogWriter&) = delete;

  /// Buffers one record; flushes + fsyncs when the group-commit window
  /// fills.
  Status Append(const Event& event);

  /// Writes buffered records and fsyncs (when enabled).
  Status Flush();

  /// Flush + close. The writer is unusable afterwards.
  Status Close();

  /// Records appended since this writer opened (not counting recovered
  /// ones).
  std::int64_t records_appended() const { return records_appended_; }

 private:
  EventLogWriter(std::string path, int fd, WalOptions options)
      : path_(std::move(path)), fd_(fd), options_(options) {}

  std::string path_;
  int fd_ = -1;
  WalOptions options_;
  std::string buffer_;
  std::int64_t records_since_flush_ = 0;
  std::int64_t records_appended_ = 0;
};

}  // namespace io
}  // namespace ltc

#endif  // LTC_IO_WAL_H_
