#include "net/server.h"

#include <poll.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <utility>

#include "common/line_scanner.h"
#include "common/string_util.h"

namespace ltc {
namespace net {

namespace {

/// Socket read chunk. Frames larger than this simply take several reads.
constexpr std::size_t kReadChunk = 64 * 1024;

}  // namespace

IngestServer::IngestServer(svc::RecoverableService* service,
                           ServerOptions options)
    : service_(service),
      options_(std::move(options)),
      queue_(options_.queue_capacity) {
  const auto shards =
      static_cast<std::size_t>(service_->engine().num_shards());
  counters_.admitted_per_shard.assign(shards, 0);
  counters_.rejected_per_shard.assign(shards, 0);
  // The admission clock continues from the recovered stream: a restarted
  // server rejects events that precede what its WAL already holds. The
  // recovered count seeds the wire-visible admitted total for the same
  // reason — the hello ack tells a reconnecting client where to resume.
  last_admitted_time_ = service_->engine().last_event_time();
  recovered_events_ = service_->events_applied();
}

void IngestServer::HandleEvents(const std::string& payload, Ack* ack) {
  ++counters_.frames;
  auto decoded = DecodeEventsPayload(payload);
  if (!decoded.ok()) {
    ++counters_.frames_rejected;
    // Count the frame's records, by the decoder's own record rule, as
    // rejected events; they are unattributable to a shard without a
    // successful parse.
    LineScanner scan(payload, "ltc-wire events");
    while (scan.NextRecord()) ++counters_.events_rejected;
    ack->code = decoded.status().code();
    ack->message = decoded.status().message();
    return;
  }
  const std::vector<io::Event>& events = decoded.value();
  if (events.empty()) {
    ack->code = StatusCode::kInvalidArgument;
    ack->message = "empty events frame";
    ++counters_.frames_rejected;
    return;
  }

  const geo::ShardMap& map = service_->engine().shard_map();
  auto reject_all = [&](StatusCode code, std::string message) {
    ++counters_.frames_rejected;
    for (const io::Event& e : events) {
      ++counters_.events_rejected;
      ++counters_.rejected_per_shard[static_cast<std::size_t>(
          map.ShardOf(e.location))];
    }
    ack->code = code;
    ack->message = std::move(message);
  };

  // Admission-time monotonicity: the engine would reject a regressing event
  // anyway, but catching it here keeps the bad frame out of the WAL.
  double clock = last_admitted_time_;
  for (const io::Event& e : events) {
    if (!(e.time >= clock)) {  // also rejects a NaN time
      reject_all(StatusCode::kInvalidArgument,
                 StrFormat("event time %g precedes the admitted stream "
                           "clock %g",
                           e.time, clock));
      return;
    }
    clock = e.time;
  }

  // Backpressure: all-or-nothing. The serve loop is the queue's only
  // producer, so the free-slot check cannot race another admission.
  if (queue_.capacity() - queue_.size() < events.size()) {
    reject_all(StatusCode::kResourceExhausted,
               StrFormat("backpressure: %zu event(s) exceed the queue's "
                         "free capacity",
                         events.size()));
    return;
  }
  for (const io::Event& e : events) {
    if (!queue_.TryPush(e)) {
      // Only possible when the queue closed mid-frame (shutdown race).
      reject_all(StatusCode::kUnavailable, "server is shutting down");
      return;
    }
    ++counters_.events_admitted;
    ++counters_.admitted_per_shard[static_cast<std::size_t>(
        map.ShardOf(e.location))];
  }
  last_admitted_time_ = clock;
  ack->code = StatusCode::kOk;
}

Status IngestServer::HandleFrame(const Frame& frame, Ack* ack, bool* finish) {
  *finish = false;
  ack->code = StatusCode::kOk;
  ack->message.clear();
  switch (frame.type) {
    case FrameType::kHello:
      ++counters_.frames;
      if (frame.payload != kWireProtocol) {
        ++counters_.frames_rejected;
        ack->code = StatusCode::kInvalidArgument;
        ack->message = "unsupported protocol '" + frame.payload +
                       "' (expected " + kWireProtocol + ")";
      }
      break;
    case FrameType::kEvents:
      HandleEvents(frame.payload, ack);
      break;
    case FrameType::kStats: {
      ++counters_.frames;
      ack->message = StrFormat(
          "queue %zu/%zu high_water %zu admitted %lld rejected %lld",
          queue_.size(), queue_.capacity(), queue_.high_water(),
          static_cast<long long>(counters_.events_admitted),
          static_cast<long long>(counters_.events_rejected));
      break;
    }
    case FrameType::kFinish: {
      ++counters_.frames;
      // Drain before acking: the acked total is final and every admitted
      // event has been applied when the client sees it.
      LTC_RETURN_IF_ERROR(DrainQueue());
      {
        MutexLock lock(&ingest_mu_);
        if (!ingest_status_.ok()) {
          ack->code = ingest_status_.code();
          ack->message = ingest_status_.message();
        }
      }
      *finish = true;
      break;
    }
    case FrameType::kAck:
      ++counters_.frames;
      ++counters_.frames_rejected;
      ack->code = StatusCode::kInvalidArgument;
      ack->message = "unexpected ack frame from client";
      break;
  }
  ack->admitted =
      static_cast<std::uint64_t>(recovered_events_ + counters_.events_admitted);
  return Status::OK();
}

Status IngestServer::DrainQueue() {
  if (drained_) return Status::OK();
  drained_ = true;
  queue_.Close();
  if (consumer_.joinable()) consumer_.join();
  counters_.queue_high_water = queue_.high_water();
  return Status::OK();
}

Status IngestServer::Serve(const std::atomic<bool>* stop_flag) {
  LTC_ASSIGN_OR_RETURN(Socket listener, ListenOn(options_.listen));
  consumer_ = std::thread([this] {
    io::Event event;
    while (queue_.Pop(&event)) {
      {
        MutexLock lock(&ingest_mu_);
        // A failed ingest poisons the stream: keep draining so producers
        // never jam, but apply nothing further.
        if (!ingest_status_.ok()) continue;
      }
      const Status status = service_->Ingest(event);
      if (!status.ok()) {
        MutexLock lock(&ingest_mu_);
        if (ingest_status_.ok()) ingest_status_ = status;
      }
    }
  });

  std::vector<std::unique_ptr<Connection>> conns;
  Status serve_status = Status::OK();
  bool finish = false;
  std::vector<char> buf(kReadChunk);
  while (!finish) {
    if (stop_flag != nullptr &&
        stop_flag->load(std::memory_order_relaxed)) {
      break;
    }
    std::vector<pollfd> fds;
    std::vector<Connection*> fd_conns;
    fds.push_back(pollfd{listener.fd(), POLLIN, 0});
    fd_conns.push_back(nullptr);
    for (const auto& conn : conns) {
      if (conn->closed) continue;
      fds.push_back(pollfd{conn->sock.fd(), POLLIN, 0});
      fd_conns.push_back(conn.get());
    }
    const int rc = ::poll(fds.data(), fds.size(), options_.poll_interval_ms);
    if (rc < 0) {
      if (errno == EINTR) continue;
      serve_status =
          Status::IOError(std::string("poll: ") + std::strerror(errno));
      break;
    }
    if (rc == 0) continue;

    if ((fds[0].revents & POLLIN) != 0) {
      auto accepted = Accept(listener);
      if (accepted.ok()) {
        auto conn = std::make_unique<Connection>();
        conn->sock = std::move(accepted).value();
        conns.push_back(std::move(conn));
      }
    }
    for (std::size_t i = 1; i < fds.size() && !finish; ++i) {
      if ((fds[i].revents & (POLLIN | POLLERR | POLLHUP)) == 0) continue;
      Connection* conn = fd_conns[i];
      auto n = conn->sock.ReadSome(buf.data(), buf.size());
      if (!n.ok() || n.value() == 0) {
        conn->closed = true;
        continue;
      }
      conn->decoder.Feed(buf.data(), n.value());
      while (!finish) {
        Frame frame;
        auto complete = conn->decoder.Next(&frame);
        if (!complete.ok()) {
          // Desynced stream: the connection cannot recover.
          conn->closed = true;
          break;
        }
        if (!complete.value()) break;
        Ack ack;
        LTC_RETURN_IF_ERROR(HandleFrame(frame, &ack, &finish));
        Frame reply;
        reply.type = FrameType::kAck;
        reply.payload = EncodeAckPayload(ack);
        const Status written = conn->sock.WriteAll(EncodeFrame(reply));
        if (!written.ok()) {
          conn->closed = true;
          break;
        }
      }
    }
    conns.erase(std::remove_if(conns.begin(), conns.end(),
                               [](const std::unique_ptr<Connection>& c) {
                                 return c->closed;
                               }),
                conns.end());
  }

  LTC_RETURN_IF_ERROR(DrainQueue());
  LTC_RETURN_IF_ERROR(serve_status);
  MutexLock lock(&ingest_mu_);
  return ingest_status_;
}

}  // namespace net
}  // namespace ltc
