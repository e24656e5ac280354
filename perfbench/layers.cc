#include "layers.h"

#include <chrono>

#include "bench.h"
#include "io/workload_io.h"
#include "net/frame.h"

namespace ltc {
namespace perfbench {

namespace {

std::int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Self-time bookkeeping: Distance time spent inside an EligibleWithin call
// on the same thread is subtracted from that call.
thread_local int t_within_depth = 0;
thread_local std::int64_t t_nested_ns = 0;

bool SameEvents(const std::vector<io::Event>& a,
                const std::vector<io::Event>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (io::FormatEventRecord(a[i]) != io::FormatEventRecord(b[i])) {
      return false;
    }
  }
  return true;
}

}  // namespace

double CountingMetric::Distance(const geo::Point& a,
                                const geo::Point& b) const {
  const std::int64_t t0 = NowNs();
  const double d = inner_->Distance(a, b);
  const std::int64_t dt = NowNs() - t0;
  distance_calls_.fetch_add(1, std::memory_order_relaxed);
  distance_ns_.fetch_add(dt, std::memory_order_relaxed);
  if (t_within_depth > 0) t_nested_ns += dt;
  return d;
}

double CountingMetric::LowerBound(const geo::Point& a,
                                  const geo::Point& b) const {
  const std::int64_t t0 = NowNs();
  const double d = inner_->LowerBound(a, b);
  lower_calls_.fetch_add(1, std::memory_order_relaxed);
  lower_ns_.fetch_add(NowNs() - t0, std::memory_order_relaxed);
  return d;
}

void CountingMetric::EligibleWithin(
    const geo::GridIndex& grid, const geo::Point& origin, double radius,
    const std::function<void(std::int64_t)>& visit) const {
  const std::int64_t t0 = NowNs();
  const std::int64_t nested0 = t_nested_ns;
  ++t_within_depth;
  if (inner_->euclidean()) {
    inner_->EligibleWithin(grid, origin, radius, visit);
  } else {
    // The base query (grid superset + exact Distance filter) is what every
    // non-Euclidean backend runs; calling it here routes its Distance calls
    // through this decorator so they are counted.
    geo::Metric::EligibleWithin(grid, origin, radius, visit);
  }
  --t_within_depth;
  const std::int64_t self = NowNs() - t0 - (t_nested_ns - nested0);
  within_calls_.fetch_add(1, std::memory_order_relaxed);
  within_ns_.fetch_add(self, std::memory_order_relaxed);
}

CountingMetric::Counts CountingMetric::counts() const {
  Counts c;
  c.distance_calls = distance_calls_.load();
  c.distance_s = static_cast<double>(distance_ns_.load()) * 1e-9;
  c.eligible_within_calls = within_calls_.load();
  c.eligible_within_s = static_cast<double>(within_ns_.load()) * 1e-9;
  c.lower_bound_calls = lower_calls_.load();
  c.lower_bound_s = static_cast<double>(lower_ns_.load()) * 1e-9;
  return c;
}

StatusOr<WalLayer> MeasureWal(const io::EventLog& log,
                              const io::WalOptions& options,
                              const std::string& path) {
  WalLayer out;
  std::vector<double> flush_ms;
  {
    LTC_ASSIGN_OR_RETURN(auto writer,
                         io::EventLogWriter::Create(path, log, options));
    std::int64_t pending = 0;
    for (const io::Event& e : log.events) {
      const double t0 = Now();
      LTC_RETURN_IF_ERROR(writer->Append(e));
      const double dt = Now() - t0;
      ++pending;
      if (options.group_commit > 0 && pending == options.group_commit) {
        pending = 0;
        out.flush_s += dt;
        flush_ms.push_back(dt * 1e3);
      } else {
        out.append_s += dt;
      }
    }
    const double t0 = Now();
    LTC_RETURN_IF_ERROR(writer->Close());
    const double dt = Now() - t0;
    out.flush_s += dt;
    flush_ms.push_back(dt * 1e3);
  }
  out.flushes = static_cast<std::int64_t>(flush_ms.size());
  out.flush_p99_ms = Summarize(flush_ms).p99;
  LTC_ASSIGN_OR_RETURN(const std::string text, io::ReadFile(path));
  out.bytes = static_cast<std::int64_t>(text.size());
  const double t0 = Now();
  LTC_ASSIGN_OR_RETURN(const io::EventLog parsed, io::ParseEventLog(text));
  out.parse_s = Now() - t0;
  out.round_trip_ok = SameEvents(parsed.events, log.events);
  return out;
}

StatusOr<CodecLayer> MeasureCodec(const std::vector<io::Event>& events,
                                  std::size_t frame_events) {
  CodecLayer out;
  std::vector<std::vector<io::Event>> chunks;
  for (std::size_t begin = 0; begin < events.size(); begin += frame_events) {
    const std::size_t end = std::min(events.size(), begin + frame_events);
    chunks.emplace_back(events.begin() + begin, events.begin() + end);
  }
  std::vector<std::string> wire;
  wire.reserve(chunks.size());
  const double t0 = Now();
  for (const std::vector<io::Event>& chunk : chunks) {
    net::Frame frame;
    frame.type = net::FrameType::kEvents;
    frame.payload = net::EncodeEventsPayload(chunk);
    wire.push_back(net::EncodeFrame(frame));
  }
  out.encode_s = Now() - t0;
  out.frames = static_cast<std::int64_t>(wire.size());

  std::vector<io::Event> decoded;
  decoded.reserve(events.size());
  const double t1 = Now();
  net::FrameDecoder decoder;
  for (const std::string& bytes : wire) {
    decoder.Feed(bytes.data(), bytes.size());
    net::Frame frame;
    LTC_ASSIGN_OR_RETURN(const bool complete, decoder.Next(&frame));
    if (!complete) return Status::Internal("codec: frame did not decode");
    LTC_ASSIGN_OR_RETURN(std::vector<io::Event> chunk,
                         net::DecodeEventsPayload(frame.payload));
    decoded.insert(decoded.end(), chunk.begin(), chunk.end());
  }
  out.decode_s = Now() - t1;
  out.round_trip_ok = SameEvents(decoded, events);
  return out;
}

}  // namespace perfbench
}  // namespace ltc
