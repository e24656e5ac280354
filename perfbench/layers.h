// Per-layer probes that live in the benchmark, not the program: a counting
// geo::Metric decorator installed through model::RebindMetric, and timed
// loops over the io WAL writer and the net frame codec. Used only by the
// traced run (--trace 1).

#ifndef LTC_PERFBENCH_LAYERS_H_
#define LTC_PERFBENCH_LAYERS_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "geo/metric.h"
#include "io/event_log.h"
#include "io/wal.h"

namespace ltc {
namespace perfbench {

/// \brief Forwards every geo::Metric call to `inner`, counting calls and
/// their self time (a Distance call made inside EligibleWithin is charged
/// to Distance, not to EligibleWithin). Results are the inner metric's, so
/// assignment logs are unchanged — the traced run checks that.
class CountingMetric final : public geo::Metric {
 public:
  explicit CountingMetric(std::shared_ptr<const geo::Metric> inner)
      : inner_(std::move(inner)) {}

  double Distance(const geo::Point& a, const geo::Point& b) const override;
  double LowerBound(const geo::Point& a, const geo::Point& b) const override;
  void EligibleWithin(
      const geo::GridIndex& grid, const geo::Point& origin, double radius,
      const std::function<void(std::int64_t)>& visit) const override;
  bool euclidean() const override { return inner_->euclidean(); }
  std::string Name() const override { return inner_->Name(); }

  struct Counts {
    std::int64_t distance_calls = 0;
    double distance_s = 0.0;
    std::int64_t eligible_within_calls = 0;
    double eligible_within_s = 0.0;  // self time
    std::int64_t lower_bound_calls = 0;
    double lower_bound_s = 0.0;
  };
  Counts counts() const;

 private:
  std::shared_ptr<const geo::Metric> inner_;
  mutable std::atomic<std::int64_t> distance_calls_{0};
  mutable std::atomic<std::int64_t> distance_ns_{0};
  mutable std::atomic<std::int64_t> within_calls_{0};
  mutable std::atomic<std::int64_t> within_ns_{0};
  mutable std::atomic<std::int64_t> lower_calls_{0};
  mutable std::atomic<std::int64_t> lower_ns_{0};
};

/// io layer: the workload's events appended through io::EventLogWriter
/// with its WalOptions, then the WAL parsed back with io::ParseEventLog.
struct WalLayer {
  double append_s = 0.0;  // Append calls that did not close a group commit
  double flush_s = 0.0;   // Append calls that flushed (write + fsync) + Close
  std::int64_t flushes = 0;
  double flush_p99_ms = 0.0;
  std::int64_t bytes = 0;
  double parse_s = 0.0;
  bool round_trip_ok = false;  // parsed events == appended events
};
StatusOr<WalLayer> MeasureWal(const io::EventLog& log,
                              const io::WalOptions& options,
                              const std::string& path);

/// net layer: the workload's frames encoded (EncodeEventsPayload +
/// EncodeFrame) and decoded (FrameDecoder + DecodeEventsPayload).
struct CodecLayer {
  double encode_s = 0.0;
  double decode_s = 0.0;
  std::int64_t frames = 0;
  bool round_trip_ok = false;
};
StatusOr<CodecLayer> MeasureCodec(const std::vector<io::Event>& events,
                                  std::size_t frame_events);

}  // namespace perfbench
}  // namespace ltc

#endif  // LTC_PERFBENCH_LAYERS_H_
