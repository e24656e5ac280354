// Tests for workload/arrangement (de)serialisation, the robustness of the
// ltc-events v1 reader (truncation, CRLF line endings), and seeded
// mutations of every format the line scanner reads.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <limits>
#include <memory>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "common/crc32.h"
#include "common/string_util.h"
#include "gen/example_paper.h"
#include "gen/road.h"
#include "gen/stream.h"
#include "gen/synthetic.h"
#include "io/event_log.h"
#include "io/wal.h"
#include "io/workload_io.h"
#include "model/accuracy.h"
#include "model/eligibility.h"
#include "mutate.h"
#include "net/frame.h"
#include "sim/engine.h"

namespace ltc {
namespace io {
namespace {

model::ProblemInstance SmallSynthetic(std::uint64_t seed = 3) {
  gen::SyntheticConfig cfg;
  cfg.num_tasks = 8;
  cfg.num_workers = 50;
  cfg.grid_side = 80.0;
  cfg.seed = seed;
  auto instance = gen::GenerateSynthetic(cfg);
  instance.status().CheckOK();
  return std::move(instance).value();
}

TEST(WorkloadIoTest, InstanceRoundTripsExactly) {
  const model::ProblemInstance original = SmallSynthetic();
  auto text = SerializeInstance(original);
  ASSERT_TRUE(text.ok());
  auto parsed = ParseInstance(text.value());
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();

  EXPECT_EQ(parsed->num_tasks(), original.num_tasks());
  EXPECT_EQ(parsed->num_workers(), original.num_workers());
  EXPECT_DOUBLE_EQ(parsed->epsilon, original.epsilon);
  EXPECT_EQ(parsed->capacity, original.capacity);
  EXPECT_DOUBLE_EQ(parsed->acc_min, original.acc_min);
  for (model::TaskId t = 0; t < original.num_tasks(); ++t) {
    EXPECT_EQ(parsed->task(t).location, original.task(t).location);
  }
  for (model::WorkerIndex w = 1; w <= original.last_worker(); ++w) {
    const auto& a = parsed->worker(w);
    const auto& b = original.worker(w);
    EXPECT_EQ(a.location, b.location);
    EXPECT_DOUBLE_EQ(a.historical_accuracy, b.historical_accuracy);
    EXPECT_EQ(a.user_id, b.user_id);
  }
  // Accuracy function round-trips semantically: same Acc on every pair.
  for (std::int64_t t = 0; t < original.num_tasks(); ++t) {
    EXPECT_DOUBLE_EQ(parsed->Acc(1, static_cast<model::TaskId>(t)),
                     original.Acc(1, static_cast<model::TaskId>(t)));
  }
}

TEST(WorkloadIoTest, FileRoundTrip) {
  const model::ProblemInstance original = SmallSynthetic(9);
  const std::string path = "/tmp/ltc_io_test_workload.txt";
  ASSERT_TRUE(SaveInstance(original, path).ok());
  auto loaded = LoadInstance(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->num_workers(), original.num_workers());
  // Algorithms behave identically on the loaded instance.
  auto index_a = model::EligibilityIndex::Build(&original);
  auto index_b = model::EligibilityIndex::Build(&loaded.value());
  ASSERT_TRUE(index_a.ok());
  ASSERT_TRUE(index_b.ok());
  auto ma = sim::RunAlgorithm("LAF", original, *index_a);
  auto mb = sim::RunAlgorithm("LAF", *loaded, *index_b);
  ASSERT_TRUE(ma.ok());
  ASSERT_TRUE(mb.ok());
  EXPECT_EQ(ma->latency, mb->latency);
}

TEST(WorkloadIoTest, LoadMissingFileFails) {
  EXPECT_TRUE(LoadInstance("/tmp/no_such_ltc_file.txt").status().IsIOError());
}

TEST(WorkloadIoTest, ParseRejectsCorruptInputs) {
  EXPECT_TRUE(ParseInstance("").status().IsInvalidArgument());
  EXPECT_TRUE(ParseInstance("not a workload").status().IsInvalidArgument());

  const model::ProblemInstance original = SmallSynthetic();
  auto text = SerializeInstance(original);
  ASSERT_TRUE(text.ok());
  // Truncate a worker line.
  std::string bad = text.value();
  bad.replace(bad.rfind("w "), 3, "w x");
  EXPECT_FALSE(ParseInstance(bad).ok());
  // Declared counts must match.
  std::string miscount = text.value();
  miscount.replace(miscount.find("tasks 8"), 7, "tasks 9");
  EXPECT_FALSE(ParseInstance(miscount).ok());
  // Unknown record type.
  EXPECT_FALSE(ParseInstance(std::string("# ltc-workload v1\nz 1\n")).ok());
  // An id or count its field cannot hold is an error, not a narrowed value
  // (2^32 used to load as task 0, 2^32 + 1 as worker 1 or capacity 1).
  for (const auto& [from, to] :
       {std::pair<std::string, std::string>{"\nt 0 ", "\nt 4294967296 "},
        {"\nw 1 ", "\nw 4294967297 "},
        {"\ncapacity " + std::to_string(original.capacity) + "\n",
         "\ncapacity 4294967297\n"}}) {
    std::string wide = text.value();
    wide.replace(wide.find(from), from.size(), to);
    EXPECT_TRUE(ParseInstance(wide).status().IsInvalidArgument()) << to;
  }
  // Declared counts are untrusted: a negative one is a parse error, and a
  // huge one reserves no more than the input holds (both used to abort in
  // std::vector::reserve).
  for (const char* count : {"tasks -1", "workers -1",
                            "tasks 4611686018427387904",
                            "workers 4611686018427387904"}) {
    const auto parsed =
        ParseInstance(std::string("# ltc-workload v1\n") + count + "\n");
    EXPECT_TRUE(parsed.status().IsInvalidArgument())
        << count << ": " << parsed.status().ToString();
  }
}

// A step model's dmax is written with FormatReal like every other double
// (it used to be re-read from the model's "%g" name, six digits).
TEST(WorkloadIoTest, StepAccuracyRoundTripsExactly) {
  model::ProblemInstance instance = SmallSynthetic();
  instance.accuracy = std::make_shared<model::StepDistanceAccuracy>(
      12.345678901234567);
  auto text = SerializeInstance(instance);
  ASSERT_TRUE(text.ok()) << text.status().ToString();
  auto parsed = ParseInstance(text.value());
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const auto* step = dynamic_cast<const model::StepDistanceAccuracy*>(
      parsed->accuracy.get());
  ASSERT_NE(step, nullptr);
  EXPECT_EQ(step->dmax(), 12.345678901234567);
}

TEST(WorkloadIoTest, MatrixAccuracyNotSerialisable) {
  auto instance = gen::PaperExampleInstance(0.2);
  ASSERT_TRUE(instance.ok());
  EXPECT_TRUE(SerializeInstance(*instance).status().code() ==
              StatusCode::kNotImplemented);
}

// The arrangement file is written, never read back (ltc_run
// --save_arrangement): one "a <worker> <task>" line per assignment, in
// commit order, after the header. Its bytes for LAF on a fixed instance
// are pinned.
TEST(ArrangementIoTest, WriterBytesArePinned) {
  const model::ProblemInstance instance = SmallSynthetic(11);
  auto index = model::EligibilityIndex::Build(&instance);
  ASSERT_TRUE(index.ok());
  auto scheduler = algo::MakeOnlineScheduler("LAF", 1);
  ASSERT_TRUE(scheduler.ok());
  algo::DriveOnline(instance, *index, scheduler->get()).status().CheckOK();
  const model::Arrangement& arrangement = (*scheduler)->arrangement();
  const std::string text = SerializeArrangement(arrangement);
  const std::vector<std::string> lines = Split(text, '\n');
  ASSERT_EQ(lines.size(), static_cast<std::size_t>(arrangement.size()) + 2);
  EXPECT_EQ(lines.front(), "# ltc-arrangement v1");
  EXPECT_EQ(lines.back(), "");
  for (std::size_t i = 0; i < arrangement.assignments().size(); ++i) {
    const model::Assignment& a = arrangement.assignments()[i];
    EXPECT_EQ(lines[i + 1], StrFormat("a %d %d", a.worker, a.task));
  }
  EXPECT_EQ(StrFormat("0x%08x %zu", Crc32(text), text.size()),
            "0xcfe9e47c 503");
}

std::string SmallEventLogText() {
  gen::StreamConfig cfg;
  cfg.num_tasks = 5;
  cfg.num_workers = 40;
  cfg.seed = 17;
  auto log = gen::GenerateStreamEvents(cfg);
  log.status().CheckOK();
  auto text = SerializeEventLog(log.value());
  text.status().CheckOK();
  return std::move(text).value();
}

// A file cut mid-record must fail loudly: a truncated coordinate or
// accuracy field can still parse as a perfectly valid (wrong) number, so
// the reader treats a missing final newline as truncation rather than
// risking a silently mangled last event.
TEST(EventLogIoTest, TruncatedFinalLineIsACleanError) {
  const std::string text = SmallEventLogText();
  ASSERT_EQ(text.back(), '\n');

  // Cut inside the last record (drop the newline plus a few characters).
  const std::string truncated = text.substr(0, text.size() - 4);
  const auto parsed = ParseEventLog(truncated);
  ASSERT_TRUE(parsed.status().IsInvalidArgument()) << parsed.status().ToString();
  EXPECT_NE(parsed.status().ToString().find("truncated"), std::string::npos)
      << parsed.status().ToString();

  // Even a cut that lands exactly on the record boundary (newline gone,
  // record text complete) reads as truncation — writers always terminate.
  const std::string no_newline = text.substr(0, text.size() - 1);
  EXPECT_TRUE(ParseEventLog(no_newline).status().IsInvalidArgument());

  // Dropping whole records keeps the declared-count check as the backstop.
  const std::string last_line_start = text.substr(0, text.rfind('\n'));
  const std::string whole_line_gone =
      text.substr(0, last_line_start.rfind('\n') + 1);
  EXPECT_TRUE(ParseEventLog(whole_line_gone).status().IsInvalidArgument());
}

// CRLF-terminated logs (a file that went through a Windows editor or a
// "text mode" transfer) must parse to the same stream, byte for byte after
// re-serialisation.
TEST(EventLogIoTest, CrlfTerminatedLogParsesTolerantly) {
  const std::string text = SmallEventLogText();
  std::string crlf;
  crlf.reserve(text.size() + 64);
  for (char c : text) {
    if (c == '\n') crlf += '\r';
    crlf += c;
  }
  const auto parsed = ParseEventLog(crlf);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const auto round = SerializeEventLog(parsed.value());
  ASSERT_TRUE(round.ok());
  EXPECT_EQ(round.value(), text);
}

// The declared event count is untrusted, as in ParseInstance; and an
// integer its field cannot hold is an error, not a narrowed value (2^32 + 1
// used to load as capacity 1).
TEST(EventLogIoTest, BadEventCountsAreParseErrors) {
  for (const char* count : {"events -1", "events 4611686018427387904"}) {
    const auto parsed =
        ParseEventLog(std::string("# ltc-events v1\n") + count + "\n");
    EXPECT_TRUE(parsed.status().IsInvalidArgument())
        << count << ": " << parsed.status().ToString();
  }
  const std::string text = SmallEventLogText();
  const std::size_t begin = text.find("\ncapacity ") + 1;
  const std::size_t end = text.find('\n', begin);
  const auto parsed = ParseEventLog(text.substr(0, begin) +
                                    "capacity 4294967297" + text.substr(end));
  EXPECT_TRUE(parsed.status().IsInvalidArgument())
      << parsed.status().ToString();
}

// --------------------------------------------------------------------------
// Write-ahead log (io/wal.h): the WAL is an ltc-events file, so recovery is
// ParseEventLog over the durable prefix; these pin the documented recovery
// rules — torn tails truncate, corrupt prefixes surface, unflushed
// group-commit windows vanish on crash.

io::EventLog SmallEventLog() {
  gen::StreamConfig cfg;
  cfg.num_tasks = 5;
  cfg.num_workers = 40;
  cfg.seed = 17;
  auto log = gen::GenerateStreamEvents(cfg);
  log.status().CheckOK();
  return std::move(log).value();
}

std::string WalPath(const std::string& name) {
  const std::string path = "/tmp/ltc_io_test_" + name + ".events";
  std::remove(path.c_str());
  return path;
}

TEST(WalTest, CreateAppendReopenRoundTrip) {
  const io::EventLog log = SmallEventLog();
  const std::string path = WalPath("roundtrip");
  WalOptions wopts;
  wopts.fsync = false;
  {
    auto writer = EventLogWriter::Create(path, log, wopts);
    ASSERT_TRUE(writer.ok()) << writer.status().ToString();
    for (std::size_t i = 0; i < 10; ++i) {
      ASSERT_TRUE(writer.value()->Append(log.events[i]).ok());
    }
    EXPECT_EQ(writer.value()->records_appended(), 10);
    ASSERT_TRUE(writer.value()->Close().ok());
  }
  WalRecovery recovery;
  auto reopened = EventLogWriter::OpenForAppend(path, &recovery, wopts);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_EQ(recovery.truncated_bytes, 0);
  ASSERT_EQ(recovery.log.num_events(), 10);
  EXPECT_DOUBLE_EQ(recovery.log.epsilon, log.epsilon);
  EXPECT_EQ(recovery.log.capacity, log.capacity);
  for (std::size_t i = 0; i < 10; ++i) {
    EXPECT_EQ(FormatEventRecord(recovery.log.events[i]),
              FormatEventRecord(log.events[i]));
  }
  // Appends continue seamlessly; the file stays a parseable ltc-events log.
  ASSERT_TRUE(reopened.value()->Append(log.events[10]).ok());
  ASSERT_TRUE(reopened.value()->Close().ok());
  auto loaded = LoadEventLog(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded.value().num_events(), 11);
}

// Satellite regression (PR 7): a torn final record — the partial write a
// crash leaves behind — is detected and truncated on open-for-append
// instead of poisoning the parse or, worse, parsing as a valid-but-wrong
// event.
TEST(WalTest, TornFinalRecordIsTruncatedOnReopen) {
  const io::EventLog log = SmallEventLog();
  const std::string path = WalPath("torn");
  WalOptions wopts;
  wopts.fsync = false;
  {
    auto writer = EventLogWriter::Create(path, log, wopts);
    ASSERT_TRUE(writer.ok());
    for (std::size_t i = 0; i < 6; ++i) {
      ASSERT_TRUE(writer.value()->Append(log.events[i]).ok());
    }
    ASSERT_TRUE(writer.value()->Close().ok());
  }
  // Tear: a record whose tail never hit the disk. "w 1.25 3" would even
  // parse as a (wrong) prefix of a worker record if naively completed.
  {
    auto text = ReadFile(path);
    ASSERT_TRUE(text.ok());
    ASSERT_TRUE(WriteFile(path, text.value() + "w 1.25 3").ok());
  }
  WalRecovery recovery;
  auto reopened = EventLogWriter::OpenForAppend(path, &recovery, wopts);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_EQ(recovery.truncated_bytes, 8);
  EXPECT_EQ(recovery.log.num_events(), 6);
  // The truncation is physical: appends land where the tear was removed.
  ASSERT_TRUE(reopened.value()->Append(log.events[6]).ok());
  ASSERT_TRUE(reopened.value()->Close().ok());
  auto loaded = LoadEventLog(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded.value().num_events(), 7);
}

// A corrupt *complete* line is not tearing — it must surface as IOError,
// never be silently dropped.
TEST(WalTest, CorruptDurablePrefixSurfaces) {
  const io::EventLog log = SmallEventLog();
  const std::string path = WalPath("corrupt");
  WalOptions wopts;
  wopts.fsync = false;
  {
    auto writer = EventLogWriter::Create(path, log, wopts);
    ASSERT_TRUE(writer.ok());
    for (std::size_t i = 0; i < 6; ++i) {
      ASSERT_TRUE(writer.value()->Append(log.events[i]).ok());
    }
    ASSERT_TRUE(writer.value()->Close().ok());
  }
  auto text = ReadFile(path);
  ASSERT_TRUE(text.ok());
  std::string bad = text.value();
  bad.replace(bad.rfind("\nw "), 3, "\nw x", 4);
  ASSERT_TRUE(WriteFile(path, bad).ok());
  WalRecovery recovery;
  EXPECT_TRUE(EventLogWriter::OpenForAppend(path, &recovery, wopts)
                  .status()
                  .IsIOError());
}

TEST(WalTest, CrashDropsOnlyTheUnflushedWindow) {
  const io::EventLog log = SmallEventLog();
  const std::string path = WalPath("window");
  WalOptions wopts;
  wopts.group_commit = 4;
  wopts.fsync = false;
  {
    auto writer = EventLogWriter::Create(path, log, wopts);
    ASSERT_TRUE(writer.ok());
    for (std::size_t i = 0; i < 10; ++i) {
      ASSERT_TRUE(writer.value()->Append(log.events[i]).ok());
    }
    // Crash: destroyed without Close — the buffered partial window (10
    // appended, 8 flushed) must vanish, not half-land.
  }
  WalRecovery recovery;
  auto reopened = EventLogWriter::OpenForAppend(path, &recovery, wopts);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_EQ(recovery.log.num_events(), 8);
  EXPECT_EQ(recovery.truncated_bytes, 0);
}

TEST(WalTest, OpenForAppendOnMissingFileIsNotFound) {
  WalRecovery recovery;
  EXPECT_TRUE(
      EventLogWriter::OpenForAppend("/tmp/no_such_ltc_wal.events", &recovery)
          .status()
          .IsNotFound());
}

// One record, with or without its '\n', through ParseEventRecords: the
// parser WAL, event files and the wire decoder share.
StatusOr<Event> ParseOne(std::string record) {
  if (record.empty() || record.back() != '\n') record += '\n';
  LTC_ASSIGN_OR_RETURN(const std::vector<Event> events,
                       ParseEventRecords(record, "ltc-events"));
  if (events.size() != 1) return Status::InvalidArgument("not one record");
  return events[0];
}

TEST(EventRecordCodecTest, ParseIsInverseOfFormat) {
  const io::EventLog log = SmallEventLog();
  for (const Event& e : log.events) {
    auto parsed = ParseOne(FormatEventRecord(e));
    ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
    EXPECT_EQ(FormatEventRecord(parsed.value()), FormatEventRecord(e));
  }
  EXPECT_FALSE(ParseOne("t 0 1").ok());       // missing field
  EXPECT_FALSE(ParseOne("w 0 1 2").ok());     // missing accuracy
  EXPECT_FALSE(ParseOne("m 0 zero 1 2").ok());  // non-numeric id
  EXPECT_FALSE(ParseOne("q 0 1 2").ok());     // unknown kind
  EXPECT_FALSE(ParseOne("").ok());
}

// FormatEventRecord writes doubles with the snapshot codec's FormatReal;
// the bytes are those of "%.17g", the format WAL and event-log files were
// always written in — edge values and a seeded sample of bit patterns.
TEST(EventRecordCodecTest, FormatMatchesPrintfBytes) {
  std::vector<double> values = {0.0,
                                -0.0,
                                1.0,
                                0.1,
                                1e300,
                                -1e-300,
                                123456789012345678.0,
                                std::numeric_limits<double>::denorm_min(),
                                2.2250738585072009e-308,
                                std::numeric_limits<double>::max(),
                                std::numeric_limits<double>::min()};
  std::uint64_t bits = 0x9e3779b97f4a7c15u;
  for (int i = 0; i < 4000; ++i) {
    bits = bits * 6364136223846793005u + 1442695040888963407u;
    double v = 0.0;
    std::memcpy(&v, &bits, sizeof(v));
    if (std::isfinite(v)) values.push_back(v);
  }
  for (double v : values) {
    Event t;
    t.kind = Event::Kind::kTaskArrival;
    t.time = v;
    t.location = {v, -v};
    EXPECT_EQ(FormatEventRecord(t),
              StrFormat("t %.17g %.17g %.17g\n", v, v, -v));
    Event w = t;
    w.kind = Event::Kind::kWorkerArrival;
    w.accuracy = v;
    EXPECT_EQ(FormatEventRecord(w),
              StrFormat("w %.17g %.17g %.17g %.17g\n", v, v, -v, v));
    Event m = t;
    m.kind = Event::Kind::kTaskMove;
    m.task = 42;
    EXPECT_EQ(FormatEventRecord(m),
              StrFormat("m %.17g 42 %.17g %.17g\n", v, v, -v));
  }
}

// from_chars accepts "nan" and "inf"; the record parser behind both event
// files and the wire decoder must not. One row per numeric field.
TEST(EventRecordCodecTest, NonFiniteFieldsAreRejected) {
  ASSERT_TRUE(ParseOne("t 1 2 3").ok());
  ASSERT_TRUE(ParseOne("w 1 2 3 0.8").ok());
  ASSERT_TRUE(ParseOne("m 1 0 2 3").ok());
  // A task id its field cannot hold: 2^32 used to move task 0.
  EXPECT_TRUE(
      ParseOne("m 1 4294967296 2 3").status().IsInvalidArgument());
  for (const char* bad : {"nan", "-nan", "inf", "-inf"}) {
    const std::string v = bad;
    for (const std::string& record : {
             "t " + v + " 2 3", "t 1 " + v + " 3", "t 1 2 " + v,
             "w " + v + " 2 3 0.8", "w 1 " + v + " 3 0.8",
             "w 1 2 " + v + " 0.8", "w 1 2 3 " + v,
             "m " + v + " 0 2 3", "m 1 0 " + v + " 3", "m 1 0 2 " + v}) {
      EXPECT_TRUE(ParseOne(record).status().IsInvalidArgument())
          << record;
    }
  }
  // A worker accuracy outside [0, 1] is out of domain, finite or not.
  EXPECT_FALSE(ParseOne("w 1 2 3 1.5").ok());
  EXPECT_FALSE(ParseOne("w 1 2 3 -0.1").ok());
}

// The same records inside a file: ParseEventLog fails instead of handing
// the engine a NaN (ltc_serve --events). Each row edits one field of the
// first worker record and keeps the rest of the log valid.
TEST(EventLogIoTest, NonFiniteRecordsFailTheLog) {
  const std::string text = SmallEventLogText();
  ASSERT_TRUE(ParseEventLog(text).ok());
  const std::size_t begin = text.find("\nw ") + 1;
  ASSERT_NE(begin, 0u);
  const std::size_t end = text.find('\n', begin);
  const std::vector<std::string> fields =
      Split(text.substr(begin, end - begin), ' ');
  ASSERT_EQ(fields.size(), 5u);
  for (std::size_t field = 1; field < fields.size(); ++field) {
    std::vector<std::string> edited = fields;
    edited[field] = "nan";
    const std::string record = Join(edited, " ");
    const std::string log =
        text.substr(0, begin) + record + text.substr(end);
    EXPECT_TRUE(ParseEventLog(log).status().IsInvalidArgument()) << record;
  }
}

// EventLog::Validate's accuracy range check also rejects NaN for logs built
// in memory.
TEST(EventLogIoTest, ValidateRejectsNanAccuracy) {
  io::EventLog log = SmallEventLog();
  for (Event& e : log.events) {
    if (e.kind == Event::Kind::kWorkerArrival) {
      e.accuracy = std::numeric_limits<double>::quiet_NaN();
      break;
    }
  }
  EXPECT_TRUE(log.Validate().IsInvalidArgument());
}

// --------------------------------------------------------------------------
// Seeded mutations of every text format the line scanner reads
// (tests/mutate.h). Each mutant is refused with a Status or accepted, and an
// accepted one must be a fixed point of one serialize/parse round: what it
// serializes to parses and serializes to the same bytes. Nothing may abort
// (the sanitizer CI rows run io_test with _GLIBCXX_ASSERTIONS).

template <typename Parse, typename Serialize>
void ExpectMutantsRefusedOrFixed(const char* format, const std::string& text,
                                 Parse parse, Serialize serialize) {
  std::mt19937_64 rng(20261019);
  int refused = 0;
  int accepted = 0;
  for (int m = 0; m < 500; ++m) {
    auto parsed = parse(Mutate(text, m, rng));
    if (!parsed.ok()) {
      ++refused;
      continue;
    }
    ++accepted;
    const std::string once = serialize(parsed.value());
    auto again = parse(once);
    ASSERT_TRUE(again.ok()) << format << " mutant " << m << ": "
                            << again.status().ToString();
    ASSERT_EQ(serialize(again.value()), once) << format << " mutant " << m;
  }
  EXPECT_GT(refused, 0) << format;
  EXPECT_GT(accepted, 0) << format;
}

TEST(TextMutationTest, EventLog) {
  ExpectMutantsRefusedOrFixed(
      "ltc-events", SmallEventLogText(), ParseEventLog,
      [](const EventLog& log) { return SerializeEventLog(log).value(); });
}

// A WAL reopened over the mutant plus a torn record: the tail is cut, the
// durable prefix parsed.
TEST(TextMutationTest, WalReopenWithATornTail) {
  const EventLog log = SmallEventLog();
  std::string wal = SerializeEventLogHeader(log).value();
  for (const Event& e : log.events) wal += FormatEventRecord(e);
  const std::string tail = FormatEventRecord(log.events.back());
  const std::string path = WalPath("mutant");
  std::mt19937_64 cut_rng(7);
  const auto reopen = [&](const std::string& text) -> StatusOr<EventLog> {
    const std::string torn =
        tail.substr(0, 1 + cut_rng() % (tail.size() - 1));
    LTC_RETURN_IF_ERROR(WriteFile(path, text + torn));
    WalRecovery recovery;
    LTC_RETURN_IF_ERROR(
        EventLogWriter::OpenForAppend(path, &recovery).status());
    EXPECT_EQ(recovery.truncated_bytes,
              static_cast<std::int64_t>(torn.size()));
    return std::move(recovery.log);
  };
  ExpectMutantsRefusedOrFixed(
      "WAL", wal, reopen,
      [](const EventLog& log) { return SerializeEventLog(log).value(); });
}

TEST(TextMutationTest, Workload) {
  ExpectMutantsRefusedOrFixed(
      "ltc-workload", SerializeInstance(SmallSynthetic()).value(),
      ParseInstance, [](const model::ProblemInstance& instance) {
        return SerializeInstance(instance).value();
      });
}

TEST(TextMutationTest, RoadGraph) {
  gen::RoadConfig cfg;
  cfg.rows = 4;
  cfg.cols = 5;
  cfg.world_side = 100.0;
  auto graph = gen::GenerateGridRoadGraph(cfg);
  ASSERT_TRUE(graph.ok()) << graph.status().ToString();
  ExpectMutantsRefusedOrFixed(
      "ltc-road", graph.value().Serialize(), geo::RoadGraph::Parse,
      [](const geo::RoadGraph& g) { return g.Serialize(); });
}

TEST(TextMutationTest, WireEventsPayload) {
  ExpectMutantsRefusedOrFixed("wire events",
                              net::EncodeEventsPayload(SmallEventLog().events),
                              net::DecodeEventsPayload,
                              net::EncodeEventsPayload);
}

}  // namespace
}  // namespace io
}  // namespace ltc
