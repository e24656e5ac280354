#include "io/event_log.h"

#include <limits>

#include "common/line_scanner.h"
#include "common/string_util.h"
#include "io/workload_io.h"

namespace ltc {
namespace io {

namespace {

constexpr char kHeader[] = "# ltc-events v1";
constexpr char kFormat[] = "ltc-events";

/// Reads the fields of the event record whose key the scanner just read
/// into *e, a default Event.
Status ReadEvent(LineScanner& scan, std::string_view key, Event* e) {
  if (key == "t") {
    e->kind = Event::Kind::kTaskArrival;
  } else if (key == "w") {
    e->kind = Event::Kind::kWorkerArrival;
  } else if (key == "m") {
    e->kind = Event::Kind::kTaskMove;
  } else {
    return scan.Error("unknown record");
  }
  LTC_RETURN_IF_ERROR(scan.Real(&e->time));
  if (e->kind == Event::Kind::kTaskMove) {
    LTC_RETURN_IF_ERROR(scan.Int(&e->task, 0));
  }
  LTC_RETURN_IF_ERROR(scan.Real(&e->location.x));
  LTC_RETURN_IF_ERROR(scan.Real(&e->location.y));
  if (e->kind == Event::Kind::kWorkerArrival) {
    return scan.Real(&e->accuracy, 0.0, 1.0);
  }
  return Status::OK();
}

}  // namespace

Status EventLog::Validate() const {
  if (accuracy == nullptr) {
    return Status::InvalidArgument("event log has no accuracy function");
  }
  if (!(epsilon > 0.0) || !(epsilon < 1.0)) {
    return Status::InvalidArgument(
        StrFormat("epsilon must be in (0, 1), got %g", epsilon));
  }
  if (capacity <= 0) {
    return Status::InvalidArgument(
        StrFormat("capacity must be positive, got %d", capacity));
  }
  if (acc_min < 0.0 || acc_min >= 1.0) {
    return Status::InvalidArgument(
        StrFormat("acc_min must be in [0, 1), got %g", acc_min));
  }
  double last_time = -std::numeric_limits<double>::infinity();
  std::int64_t tasks_seen = 0;
  for (std::size_t i = 0; i < events.size(); ++i) {
    const Event& e = events[i];
    if (!(e.time >= last_time)) {
      return Status::InvalidArgument(
          StrFormat("event %zu: time %g precedes predecessor %g (times must "
                    "be non-decreasing)",
                    i, e.time, last_time));
    }
    last_time = e.time;
    switch (e.kind) {
      case Event::Kind::kTaskArrival:
        ++tasks_seen;
        break;
      case Event::Kind::kWorkerArrival:
        if (!(e.accuracy >= 0.0 && e.accuracy <= 1.0)) {  // rejects NaN
          return Status::InvalidArgument(
              StrFormat("event %zu: worker accuracy %g outside [0, 1]", i,
                        e.accuracy));
        }
        break;
      case Event::Kind::kTaskMove:
        if (e.task < 0 || static_cast<std::int64_t>(e.task) >= tasks_seen) {
          return Status::InvalidArgument(
              StrFormat("event %zu: move references task %d, but only %lld "
                        "task(s) have arrived",
                        i, e.task, static_cast<long long>(tasks_seen)));
        }
        break;
    }
  }
  return Status::OK();
}

StatusOr<std::string> SerializeEventLogHeader(const EventLog& log) {
  if (log.accuracy == nullptr) {
    return Status::InvalidArgument("event log has no accuracy function");
  }
  LTC_ASSIGN_OR_RETURN(std::string accuracy_line, AccuracyLine(*log.accuracy));
  std::string out = std::string(kHeader) + "\nepsilon";
  AppendRealField(&out, log.epsilon);
  out += "\ncapacity " + std::to_string(log.capacity) + "\nacc_min";
  AppendRealField(&out, log.acc_min);
  out += '\n' + accuracy_line + '\n';
  return out;
}

std::string FormatEventRecord(const Event& e) {
  // Doubles through FormatReal: the bytes of "%.17g" without printf's
  // format parsing.
  std::string out;
  switch (e.kind) {
    case Event::Kind::kTaskArrival:
      out = "t";
      AppendRealField(&out, e.time);
      break;
    case Event::Kind::kWorkerArrival:
      out = "w";
      AppendRealField(&out, e.time);
      break;
    case Event::Kind::kTaskMove:
      out = "m";
      AppendRealField(&out, e.time);
      out += ' ' + std::to_string(e.task);
      break;
    default:
      return out;
  }
  AppendRealField(&out, e.location.x);
  AppendRealField(&out, e.location.y);
  if (e.kind == Event::Kind::kWorkerArrival) {
    AppendRealField(&out, e.accuracy);
  }
  out.push_back('\n');
  return out;
}

StatusOr<std::string> SerializeEventLog(const EventLog& log) {
  LTC_RETURN_IF_ERROR(log.Validate());
  LTC_ASSIGN_OR_RETURN(std::string out, SerializeEventLogHeader(log));
  out += StrFormat("events %lld\n", static_cast<long long>(log.num_events()));
  for (const Event& e : log.events) {
    out += FormatEventRecord(e);
  }
  return out;
}

StatusOr<std::vector<Event>> ParseEventRecords(const std::string& text,
                                               const char* format) {
  std::vector<Event> events;
  LineScanner scan(text, format);
  while (scan.NextRecord()) {
    std::string_view key;
    Event e;
    LTC_RETURN_IF_ERROR(scan.Field(&key));
    LTC_RETURN_IF_ERROR(ReadEvent(scan, key, &e));
    LTC_RETURN_IF_ERROR(scan.EndLine());
    events.push_back(e);
  }
  LTC_RETURN_IF_ERROR(scan.Finish());
  return events;
}

StatusOr<Event> ParseEventRecord(const std::string& line) {
  LTC_ASSIGN_OR_RETURN(
      const std::vector<Event> events,
      ParseEventRecords(
          !line.empty() && line.back() == '\n' ? line : line + '\n', kFormat));
  if (events.size() != 1) {
    return Status::InvalidArgument("expected one event record");
  }
  return events[0];
}

StatusOr<EventLog> ParseEventLog(const std::string& text) {
  LineScanner scan(text, kFormat);
  LTC_RETURN_IF_ERROR(scan.Header(kHeader));
  EventLog log;
  std::int64_t expected_events = -1;
  while (scan.NextRecord()) {
    std::string_view key;
    LTC_RETURN_IF_ERROR(scan.Field(&key));
    if (key == "epsilon") {
      LTC_RETURN_IF_ERROR(scan.Real(&log.epsilon));
    } else if (key == "capacity") {
      LTC_RETURN_IF_ERROR(scan.Int(&log.capacity));
    } else if (key == "acc_min") {
      LTC_RETURN_IF_ERROR(scan.Real(&log.acc_min));
    } else if (key == "accuracy") {
      LTC_ASSIGN_OR_RETURN(log.accuracy, ReadAccuracy(scan));
    } else if (key == "events") {
      // Untrusted: each event takes a line, so no more than the lines left.
      LTC_RETURN_IF_ERROR(scan.Int(&expected_events, 0, scan.lines_left()));
      log.events.reserve(static_cast<std::size_t>(expected_events));
    } else {
      Event e;
      LTC_RETURN_IF_ERROR(ReadEvent(scan, key, &e));
      log.events.push_back(e);
    }
    LTC_RETURN_IF_ERROR(scan.EndLine());
  }
  // A last line without its '\n' was cut mid-record, and a cut number can
  // still parse as a valid, wrong one.
  LTC_RETURN_IF_ERROR(scan.Finish());
  LTC_RETURN_IF_ERROR(CheckCount("event", expected_events, log.num_events()));
  LTC_RETURN_IF_ERROR(log.Validate().WithContext("ParseEventLog"));
  return log;
}

Status SaveEventLog(const EventLog& log, const std::string& path) {
  LTC_ASSIGN_OR_RETURN(std::string text, SerializeEventLog(log));
  return WriteFile(path, text);
}

StatusOr<EventLog> LoadEventLog(const std::string& path) {
  LTC_ASSIGN_OR_RETURN(std::string text, ReadFile(path));
  auto parsed = ParseEventLog(text);
  if (!parsed.ok()) return parsed.status().WithContext("loading " + path);
  return parsed;
}

StatusOr<EventLog> EventLogFromInstance(const model::ProblemInstance& instance,
                                        double worker_spacing) {
  LTC_RETURN_IF_ERROR(instance.Validate());
  if (!(worker_spacing > 0.0)) {
    return Status::InvalidArgument("worker_spacing must be positive");
  }
  EventLog log;
  log.epsilon = instance.epsilon;
  log.capacity = instance.capacity;
  log.acc_min = instance.acc_min;
  log.accuracy = instance.accuracy;
  log.events.reserve(instance.tasks.size() + instance.workers.size());
  for (const model::Task& t : instance.tasks) {
    Event e;
    e.kind = Event::Kind::kTaskArrival;
    e.time = 0.0;
    e.location = t.location;
    log.events.push_back(e);
  }
  for (const model::Worker& w : instance.workers) {
    Event e;
    e.kind = Event::Kind::kWorkerArrival;
    e.time = static_cast<double>(w.index) * worker_spacing;
    e.location = w.location;
    e.accuracy = w.historical_accuracy;
    log.events.push_back(e);
  }
  return log;
}

}  // namespace io
}  // namespace ltc
