// Tests for the ltc-wire v1 framing codec and the loopback socket ingest
// path: frame encode/decode (including hostile byte streams), ack and
// events payload codecs, and an in-process IngestServer driven by
// IngestClient over a Unix-domain socket — admission monotonicity,
// all-or-nothing rejection, backpressure, stats, finish-drain, and the
// stop-flag graceful drain.

#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <fstream>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "gen/stream.h"
#include "net/client.h"
#include "net/frame.h"
#include "net/server.h"
#include "svc/recoverable.h"
#include "svc/serve_main.h"

namespace ltc {
namespace net {
namespace {

io::Event TaskEvent(double time, double x, double y) {
  io::Event e;
  e.kind = io::Event::Kind::kTaskArrival;
  e.time = time;
  e.location = geo::Point{x, y};
  return e;
}

io::Event WorkerEvent(double time, double x, double y, double acc) {
  io::Event e;
  e.kind = io::Event::Kind::kWorkerArrival;
  e.time = time;
  e.location = geo::Point{x, y};
  e.accuracy = acc;
  return e;
}

TEST(FrameCodecTest, RoundTripsEveryType) {
  for (const FrameType type :
       {FrameType::kHello, FrameType::kEvents, FrameType::kFinish,
        FrameType::kAck, FrameType::kStats}) {
    Frame in;
    in.type = type;
    in.payload = "some payload \n with bytes \x01\x02";
    const std::string wire = EncodeFrame(in);

    FrameDecoder decoder;
    decoder.Feed(wire.data(), wire.size());
    Frame out;
    auto complete = decoder.Next(&out);
    ASSERT_TRUE(complete.ok()) << complete.status().ToString();
    ASSERT_TRUE(complete.value());
    EXPECT_EQ(out.type, in.type);
    EXPECT_EQ(out.payload, in.payload);
    EXPECT_EQ(decoder.buffered_bytes(), 0u);
  }
}

TEST(FrameCodecTest, DecodesByteByByteAndBackToBack) {
  Frame a;
  a.type = FrameType::kEvents;
  a.payload = "t 0 1 2\n";
  Frame b;
  b.type = FrameType::kFinish;
  const std::string wire = EncodeFrame(a) + EncodeFrame(b);

  FrameDecoder decoder;
  std::vector<Frame> seen;
  for (const char c : wire) {
    decoder.Feed(&c, 1);
    Frame f;
    auto complete = decoder.Next(&f);
    ASSERT_TRUE(complete.ok());
    if (complete.value()) seen.push_back(f);
  }
  ASSERT_EQ(seen.size(), 2u);
  EXPECT_EQ(seen[0].payload, a.payload);
  EXPECT_EQ(seen[1].type, FrameType::kFinish);
}

TEST(FrameCodecTest, UnknownTypeAndOversizedLengthAreStickyErrors) {
  {
    FrameDecoder decoder;
    const std::string wire = std::string("\x01\x00\x00\x00", 4) + "Z";
    decoder.Feed(wire.data(), wire.size());
    Frame f;
    EXPECT_FALSE(decoder.Next(&f).ok());
    // Sticky: even after more (valid) bytes the stream stays dead.
    const std::string good = EncodeFrame(Frame{FrameType::kFinish, ""});
    decoder.Feed(good.data(), good.size());
    EXPECT_FALSE(decoder.Next(&f).ok());
  }
  {
    FrameDecoder decoder;
    const std::uint32_t huge = kMaxFramePayload + 2;
    char prefix[5];
    prefix[0] = static_cast<char>(huge & 0xff);
    prefix[1] = static_cast<char>((huge >> 8) & 0xff);
    prefix[2] = static_cast<char>((huge >> 16) & 0xff);
    prefix[3] = static_cast<char>((huge >> 24) & 0xff);
    prefix[4] = 'E';
    decoder.Feed(prefix, sizeof(prefix));
    Frame f;
    EXPECT_FALSE(decoder.Next(&f).ok());
  }
}

TEST(FrameCodecTest, ZeroLengthFrameIsRejected) {
  FrameDecoder decoder;
  const char wire[4] = {0, 0, 0, 0};  // length 0: no room for the type byte
  decoder.Feed(wire, sizeof(wire));
  Frame f;
  EXPECT_FALSE(decoder.Next(&f).ok());
}

TEST(AckCodecTest, RoundTripsAndValidates) {
  Ack in;
  in.code = StatusCode::kResourceExhausted;
  in.admitted = (1ull << 40) + 17;
  in.message = "backpressure: 12 free slot(s)";
  auto out = DecodeAckPayload(EncodeAckPayload(in));
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  EXPECT_EQ(out.value().code, in.code);
  EXPECT_EQ(out.value().admitted, in.admitted);
  EXPECT_EQ(out.value().message, in.message);

  const Status status = AckToStatus(out.value());
  EXPECT_TRUE(status.IsResourceExhausted());
  EXPECT_NE(status.ToString().find("backpressure"), std::string::npos);
  EXPECT_TRUE(AckToStatus(Ack{}).ok());

  EXPECT_FALSE(DecodeAckPayload("").ok());          // too short
  EXPECT_FALSE(DecodeAckPayload("\x63........").ok());  // bogus code 99
}

TEST(EventsPayloadTest, RoundTripsAndRejectsBadRecords) {
  const std::vector<io::Event> events = {
      TaskEvent(0.0, 12.5, 40.25),
      WorkerEvent(0.37, 5.0, 6.0, 0.92),
      TaskEvent(1.5, 999.0, 0.125),
  };
  const std::string payload = EncodeEventsPayload(events);
  auto decoded = DecodeEventsPayload(payload);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  ASSERT_EQ(decoded.value().size(), events.size());
  for (std::size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(decoded.value()[i].kind, events[i].kind);
    EXPECT_DOUBLE_EQ(decoded.value()[i].time, events[i].time);
    EXPECT_EQ(decoded.value()[i].location, events[i].location);
  }

  EXPECT_FALSE(DecodeEventsPayload("t 0 1 2").ok());   // missing newline
  EXPECT_FALSE(DecodeEventsPayload("x 0 1 2\n").ok()); // unknown kind
  EXPECT_FALSE(DecodeEventsPayload("w 0 1 2\n").ok()); // missing accuracy
  // A task id its field cannot hold (2^32 used to move task 0).
  EXPECT_FALSE(DecodeEventsPayload("m 1 4294967296 2 3\n").ok());
}

// ---------------------------------------------------------------------------
// Loopback socket tests: a real IngestServer over unix:/tmp/..., served from
// a background thread, driven by IngestClient.

class LoopbackServer {
 public:
  /// `pre_ingest`: events applied to the service before the server starts,
  /// simulating the durable state a crashed predecessor left behind.
  explicit LoopbackServer(std::size_t queue_capacity, int shards = 1,
                          const std::vector<io::Event>& pre_ingest = {}) {
    root_ = "/tmp/ltc_net_wire_test_" + std::to_string(::getpid()) + "_" +
            std::to_string(counter_++);
    std::filesystem::remove_all(root_);
    std::filesystem::create_directories(root_);

    gen::StreamConfig cfg;  // header parameters only
    cfg.num_tasks = 1;
    cfg.num_workers = 1;
    auto log = gen::GenerateStreamEvents(cfg);
    log.status().CheckOK();
    io::EventLog header = std::move(log).value();
    header.events.clear();

    svc::RecoverableService::Options sopts;
    sopts.state_dir = root_ + "/state";
    sopts.stream.algorithm = "LAF";
    sopts.stream.batch_deadline = 0.5;
    sopts.stream.shards = shards;
    sopts.stream.validate = false;
    sopts.wal.fsync = false;
    auto service = svc::RecoverableService::Open(header, sopts);
    service.status().CheckOK();
    service_ = std::move(service).value();
    for (const io::Event& event : pre_ingest) {
      service_->Ingest(event).CheckOK();
    }

    ServerOptions nopts;
    nopts.listen = address();
    nopts.queue_capacity = queue_capacity;
    nopts.poll_interval_ms = 5;
    server_ = std::make_unique<IngestServer>(service_.get(), nopts);
    thread_ = std::thread([this] { serve_status_ = server_->Serve(&stop_); });
    // Wait for the socket to be bindable/connectable.
    for (int i = 0; i < 400; ++i) {
      if (std::filesystem::exists(root_ + "/sock")) break;
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
  }

  ~LoopbackServer() {
    if (thread_.joinable()) {
      stop_.store(true);
      thread_.join();
    }
    std::filesystem::remove_all(root_);
  }

  std::string address() const { return "unix:" + root_ + "/sock"; }
  std::string wal_path() const { return root_ + "/state/wal.events"; }
  svc::RecoverableService& service() { return *service_; }
  IngestServer& server() { return *server_; }

  /// Joins the serve thread (after a finish frame or stop) and returns its
  /// status.
  Status Join() {
    if (thread_.joinable()) thread_.join();
    return serve_status_;
  }

  void RequestStop() { stop_.store(true); }

 private:
  static std::atomic<int> counter_;
  std::string root_;
  std::unique_ptr<svc::RecoverableService> service_;
  std::unique_ptr<IngestServer> server_;
  std::thread thread_;
  std::atomic<bool> stop_{false};
  Status serve_status_;
};

std::atomic<int> LoopbackServer::counter_{0};

/// Connect with a short retry loop: the serve thread binds asynchronously.
StatusOr<std::unique_ptr<IngestClient>> ConnectRetry(
    const std::string& address, ClientOptions options = {}) {
  Status last = Status::Unavailable("never attempted");
  for (int i = 0; i < 400; ++i) {
    auto client = IngestClient::Connect(address, options);
    if (client.ok()) return client;
    last = client.status();
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  return last;
}

TEST(IngestServerTest, AdmitsAppliesAndFinishes) {
  LoopbackServer loopback(/*queue_capacity=*/1024);

  gen::StreamConfig cfg;
  cfg.num_tasks = 20;
  cfg.num_workers = 400;
  cfg.seed = 5;
  auto log = gen::GenerateStreamEvents(cfg);
  log.status().CheckOK();
  const std::int64_t n = log.value().num_events();

  auto client = ConnectRetry(loopback.address());
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  std::vector<io::Event> frame;
  for (const io::Event& e : log.value().events) {
    frame.push_back(e);
    if (frame.size() == 100) {
      ASSERT_TRUE(client.value()->SendEvents(frame).ok());
      frame.clear();
    }
  }
  ASSERT_TRUE(client.value()->SendEvents(frame).ok());

  auto stats = client.value()->Stats();
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_FALSE(stats.value().message.empty());

  auto finish = client.value()->Finish();
  ASSERT_TRUE(finish.ok()) << finish.status().ToString();
  EXPECT_EQ(finish.value().admitted, static_cast<std::uint64_t>(n));

  ASSERT_TRUE(loopback.Join().ok());
  // The finish ack is only sent after the drain: every admitted event has
  // been applied through the durable service.
  EXPECT_EQ(loopback.service().events_applied(), n);
  const IngestCounters& c = loopback.server().counters();
  EXPECT_EQ(c.events_admitted, n);
  EXPECT_EQ(c.events_rejected, 0);
  EXPECT_LE(c.queue_high_water, std::size_t{1024});
}

TEST(IngestServerTest, RejectsTimeRegressionsAllOrNothing) {
  LoopbackServer loopback(/*queue_capacity=*/1024);
  auto client = ConnectRetry(loopback.address());
  ASSERT_TRUE(client.ok()) << client.status().ToString();

  ASSERT_TRUE(client.value()
                  ->SendEvents({TaskEvent(10.0, 1.0, 1.0)})
                  .ok());
  // A frame straddling the regression is rejected whole: the in-order
  // event at its head must not be admitted either.
  const Status rejected = client.value()->SendEvents(
      {TaskEvent(11.0, 2.0, 2.0), TaskEvent(5.0, 3.0, 3.0)});
  EXPECT_TRUE(rejected.IsInvalidArgument()) << rejected.ToString();
  // The stream is untouched; in-order traffic keeps flowing.
  ASSERT_TRUE(client.value()->SendEvents({TaskEvent(10.5, 4.0, 4.0)}).ok());

  auto finish = client.value()->Finish();
  ASSERT_TRUE(finish.ok());
  EXPECT_EQ(finish.value().admitted, 2u);
  ASSERT_TRUE(loopback.Join().ok());
  const IngestCounters& c = loopback.server().counters();
  EXPECT_EQ(c.events_admitted, 2);
  EXPECT_EQ(c.events_rejected, 2);
  EXPECT_EQ(c.frames_rejected, 1);
}

// A NaN time would pass a plain `time < clock` check and then become the
// clock, after which no regression is ever rejected again; a NaN or
// infinite coordinate would reach the engine's grid arithmetic. The
// decoder rejects every such frame before it can reach the WAL.
TEST(IngestServerTest, NonFiniteEventsAreRejectedBeforeTheWal) {
  LoopbackServer loopback(/*queue_capacity=*/1024);
  auto client = ConnectRetry(loopback.address());
  ASSERT_TRUE(client.ok()) << client.status().ToString();

  ASSERT_TRUE(client.value()->SendEvents({TaskEvent(10.0, 1.0, 1.0)}).ok());
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  const std::vector<std::vector<io::Event>> bad_frames = {
      {TaskEvent(nan, 2.0, 2.0)},
      {TaskEvent(11.0, 2.0, 2.0), TaskEvent(nan, 3.0, 3.0)},
      {TaskEvent(11.0, inf, 2.0)},
      {WorkerEvent(11.0, 2.0, nan, 0.9)},
      {WorkerEvent(11.0, 2.0, 2.0, nan)},
  };
  for (const auto& frame : bad_frames) {
    const Status rejected = client.value()->SendEvents(frame);
    EXPECT_TRUE(rejected.IsInvalidArgument()) << rejected.ToString();
  }
  // The clock is still 10: a regression is rejected, in-order traffic
  // flows.
  EXPECT_TRUE(client.value()
                  ->SendEvents({TaskEvent(5.0, 4.0, 4.0)})
                  .IsInvalidArgument());
  ASSERT_TRUE(client.value()->SendEvents({TaskEvent(10.5, 4.0, 4.0)}).ok());

  auto finish = client.value()->Finish();
  ASSERT_TRUE(finish.ok());
  EXPECT_EQ(finish.value().admitted, 2u);
  ASSERT_TRUE(loopback.Join().ok());
  EXPECT_EQ(loopback.server().counters().frames_rejected, 6);

  EXPECT_EQ(loopback.service().events_applied(), 2);

  // Closed, the WAL holds exactly the two admitted records.
  ASSERT_TRUE(loopback.service().Finish().ok());
  std::ifstream wal(loopback.wal_path());
  ASSERT_TRUE(wal.good());
  std::vector<std::string> records;
  for (std::string line; std::getline(wal, line);) {
    if (!line.empty() && line[0] != '#' && line.find(' ') == 1) {
      records.push_back(line);
    }
  }
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[0], "t 10 1 1");
  EXPECT_EQ(records[1], "t 10.5 4 4");
}

TEST(IngestServerTest, BackpressureRejectsWithoutAdmittingAnything) {
  LoopbackServer loopback(/*queue_capacity=*/8);
  auto client = ConnectRetry(loopback.address());
  ASSERT_TRUE(client.ok()) << client.status().ToString();

  // A frame larger than the whole queue can never be admitted: after
  // max_attempts backpressure rejections SendEvents reports
  // resource-exhausted, and the admitted total is untouched.
  ClientOptions impatient;
  impatient.max_attempts = 3;
  impatient.backoff_initial_us = 1;
  impatient.backoff_max_us = 2;
  auto hasty = ConnectRetry(loopback.address(), impatient);
  ASSERT_TRUE(hasty.ok());
  std::vector<io::Event> oversized;
  for (int i = 0; i < 16; ++i) {
    oversized.push_back(TaskEvent(1.0, 1.0 + i, 1.0));
  }
  const Status rejected = hasty.value()->SendEvents(oversized);
  EXPECT_TRUE(rejected.IsResourceExhausted()) << rejected.ToString();
  EXPECT_EQ(hasty.value()->frames_retried(), 3);
  EXPECT_EQ(hasty.value()->admitted(), 0u);

  // Right-sized frames drain through fine on the first connection.
  for (int i = 0; i < 10; ++i) {
    std::vector<io::Event> frame;
    for (int j = 0; j < 4; ++j) {
      frame.push_back(TaskEvent(2.0 + i, 10.0 + j, 2.0));
    }
    ASSERT_TRUE(client.value()->SendEvents(frame).ok());
  }
  auto finish = client.value()->Finish();
  ASSERT_TRUE(finish.ok());
  EXPECT_EQ(finish.value().admitted, 40u);
  ASSERT_TRUE(loopback.Join().ok());
  EXPECT_EQ(loopback.service().events_applied(), 40);
  EXPECT_GE(loopback.server().counters().frames_rejected, 3);
}

TEST(IngestServerTest, StopFlagDrainsAdmittedEvents) {
  LoopbackServer loopback(/*queue_capacity=*/1024);
  auto client = ConnectRetry(loopback.address());
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  ASSERT_TRUE(client.value()
                  ->SendEvents({TaskEvent(1.0, 1.0, 1.0),
                                WorkerEvent(2.0, 1.5, 1.5, 0.9)})
                  .ok());
  loopback.RequestStop();
  ASSERT_TRUE(loopback.Join().ok());
  // The graceful drain applied everything admitted before the stop.
  EXPECT_EQ(loopback.service().events_applied(), 2);
}

// A server started over durable state reports the recovered position in
// every ack — the hello ack is how a reconnecting client learns how many
// of its events the predecessor's WAL already holds, so it resumes instead
// of replaying from zero into time-regression rejects.
TEST(IngestServerTest, HelloAckReportsRecoveredPosition) {
  std::vector<io::Event> recovered;
  for (int i = 0; i < 7; ++i) {
    recovered.push_back(TaskEvent(1.0 + i, 5.0 + i, 5.0));
  }
  LoopbackServer loopback(/*queue_capacity=*/64, /*shards=*/1, recovered);

  auto client = ConnectRetry(loopback.address());
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  EXPECT_EQ(client.value()->admitted(), 7u);

  // The total keeps counting from the durable position...
  ASSERT_TRUE(client.value()->SendEvents({TaskEvent(10.0, 2.0, 2.0)}).ok());
  EXPECT_EQ(client.value()->admitted(), 8u);
  // ...while the session counters stay session-local.
  auto finish = client.value()->Finish();
  ASSERT_TRUE(finish.ok());
  EXPECT_EQ(finish.value().admitted, 8u);
  ASSERT_TRUE(loopback.Join().ok());
  EXPECT_EQ(loopback.server().counters().events_admitted, 1);
  EXPECT_EQ(loopback.service().events_applied(), 8);
}

/// Writes `frame` to `sock` and reads back the one ack frame.
StatusOr<Ack> RoundTrip(Socket& sock, const Frame& frame) {
  LTC_RETURN_IF_ERROR(sock.WriteAll(EncodeFrame(frame)));
  FrameDecoder decoder;
  char buf[4096];
  Frame reply;
  while (true) {
    LTC_ASSIGN_OR_RETURN(const bool complete, decoder.Next(&reply));
    if (complete) break;
    LTC_ASSIGN_OR_RETURN(const std::size_t n, sock.ReadSome(buf, sizeof(buf)));
    if (n == 0) return Status::Unavailable("server closed the connection");
    decoder.Feed(buf, n);
  }
  return DecodeAckPayload(reply.payload);
}

// A refused events frame counts its records as the decoder reads them:
// a whitespace-only line is a (bad) record, and an unterminated last
// fragment is not a record at all.
TEST(IngestServerTest, RejectedFramesCountTheDecodersRecords) {
  LoopbackServer loopback(/*queue_capacity=*/64);
  auto sock = ConnectTo(loopback.address());
  ASSERT_TRUE(sock.ok()) << sock.status().ToString();
  Frame frame;
  frame.type = FrameType::kHello;
  frame.payload = kWireProtocol;
  auto hello = RoundTrip(sock.value(), frame);
  ASSERT_TRUE(hello.ok()) << hello.status().ToString();
  ASSERT_EQ(hello.value().code, StatusCode::kOk);

  frame.type = FrameType::kEvents;
  std::int64_t expected = 0;
  for (const auto& [payload, records] :
       {std::pair<std::string, int>{"t 1 2 3\n \n", 2},
        std::pair<std::string, int>{"t 1 2 3\nt 2 3 4", 1},
        std::pair<std::string, int>{"t 1 2 3\r\n\nbogus\n", 2}}) {
    frame.payload = payload;
    auto ack = RoundTrip(sock.value(), frame);
    ASSERT_TRUE(ack.ok()) << ack.status().ToString();
    EXPECT_EQ(ack.value().code, StatusCode::kInvalidArgument) << payload;
    expected += records;
    EXPECT_EQ(loopback.server().counters().events_rejected, expected)
        << payload;
  }
  EXPECT_EQ(loopback.server().counters().frames_rejected, 3);
  EXPECT_EQ(loopback.server().counters().events_admitted, 0);

  loopback.RequestStop();
  ASSERT_TRUE(loopback.Join().ok());
}

TEST(IngestServerTest, HelloProtocolMismatchIsRejected) {
  LoopbackServer loopback(/*queue_capacity=*/64);
  auto sock = ConnectTo(loopback.address());
  ASSERT_TRUE(sock.ok()) << sock.status().ToString();
  Frame hello;
  hello.type = FrameType::kHello;
  hello.payload = "ltc-wire v999";
  ASSERT_TRUE(sock.value().WriteAll(EncodeFrame(hello)).ok());

  FrameDecoder decoder;
  char buf[4096];
  Frame reply;
  while (true) {
    auto complete = decoder.Next(&reply);
    ASSERT_TRUE(complete.ok());
    if (complete.value()) break;
    auto n = sock.value().ReadSome(buf, sizeof(buf));
    ASSERT_TRUE(n.ok());
    ASSERT_GT(n.value(), 0u);
    decoder.Feed(buf, n.value());
  }
  ASSERT_EQ(reply.type, FrameType::kAck);
  auto ack = DecodeAckPayload(reply.payload);
  ASSERT_TRUE(ack.ok());
  EXPECT_EQ(ack.value().code, StatusCode::kInvalidArgument);

  loopback.RequestStop();
  ASSERT_TRUE(loopback.Join().ok());
}

}  // namespace
}  // namespace net
}  // namespace ltc
