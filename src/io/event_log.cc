#include "io/event_log.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/state_archive.h"
#include "common/string_util.h"
#include "io/workload_io.h"

namespace ltc {
namespace io {

namespace {

constexpr char kHeader[] = "# ltc-events v1";

/// strtod accepts "nan" and "inf"; no event time or coordinate may be
/// either (a NaN time would poison every later clock comparison).
bool Finite(const Event& e) {
  return std::isfinite(e.time) && std::isfinite(e.location.x) &&
         std::isfinite(e.location.y);
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
  std::string out = kHeader;
  out += '\n';
  out += StrFormat("epsilon %.17g\n", log.epsilon);
  out += StrFormat("capacity %d\n", log.capacity);
  out += StrFormat("acc_min %.17g\n", log.acc_min);
  out += accuracy_line + "\n";
  return out;
}

std::string FormatEventRecord(const Event& e) {
  // Doubles through the snapshot codec's writer: the bytes of "%.17g"
  // without printf's format parsing.
  std::string out;
  char buf[kRealChars];
  const auto real = [&out, &buf](double v) {
    out.push_back(' ');
    out.append(buf, FormatReal(v, buf));
  };
  switch (e.kind) {
    case Event::Kind::kTaskArrival:
      out = "t";
      real(e.time);
      real(e.location.x);
      real(e.location.y);
      break;
    case Event::Kind::kWorkerArrival:
      out = "w";
      real(e.time);
      real(e.location.x);
      real(e.location.y);
      real(e.accuracy);
      break;
    case Event::Kind::kTaskMove:
      out = "m";
      real(e.time);
      out += ' ' + std::to_string(e.task);
      real(e.location.x);
      real(e.location.y);
      break;
    default:
      return out;
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

StatusOr<Event> ParseEventRecord(const std::string& line) {
  const std::string trimmed = Trim(line);
  const auto fields = Split(trimmed, ' ');
  if (fields.empty() || fields[0].empty()) {
    return Status::InvalidArgument("empty event record");
  }
  const std::string& key = fields[0];
  Event e;
  if (key == "t") {
    if (fields.size() != 4) {
      return Status::InvalidArgument("bad task event record: " + trimmed);
    }
    e.kind = Event::Kind::kTaskArrival;
    if (!ParseDouble(fields[1], &e.time) ||
        !ParseDouble(fields[2], &e.location.x) ||
        !ParseDouble(fields[3], &e.location.y) || !Finite(e)) {
      return Status::InvalidArgument("bad task event record: " + trimmed);
    }
    return e;
  }
  if (key == "w") {
    if (fields.size() != 5) {
      return Status::InvalidArgument("bad worker event record: " + trimmed);
    }
    e.kind = Event::Kind::kWorkerArrival;
    if (!ParseDouble(fields[1], &e.time) ||
        !ParseDouble(fields[2], &e.location.x) ||
        !ParseDouble(fields[3], &e.location.y) ||
        !ParseDouble(fields[4], &e.accuracy) || !Finite(e) ||
        !(e.accuracy >= 0.0 && e.accuracy <= 1.0)) {
      return Status::InvalidArgument("bad worker event record: " + trimmed);
    }
    return e;
  }
  if (key == "m") {
    if (fields.size() != 5) {
      return Status::InvalidArgument("bad move event record: " + trimmed);
    }
    e.kind = Event::Kind::kTaskMove;
    std::int64_t task;
    if (!ParseDouble(fields[1], &e.time) || !ParseInt64(fields[2], &task) ||
        !ParseDouble(fields[3], &e.location.x) ||
        !ParseDouble(fields[4], &e.location.y) || !Finite(e)) {
      return Status::InvalidArgument("bad move event record: " + trimmed);
    }
    e.task = static_cast<model::TaskId>(task);
    return e;
  }
  return Status::InvalidArgument("unknown event record '" + key + "'");
}

StatusOr<EventLog> ParseEventLog(const std::string& text) {
  // Split on '\n'; CRLF-terminated files are tolerated because every line
  // is Trim()med (which strips the dangling '\r') before field splitting.
  const std::vector<std::string> lines = Split(text, '\n');
  if (lines.empty() || Trim(lines[0]) != kHeader) {
    return Status::InvalidArgument("missing ltc-events v1 header");
  }
  // Every record the writer emits is newline-terminated, so a non-empty
  // final line without its '\n' means the file was cut mid-record. Failing
  // here is what keeps a truncated last event from parsing "successfully"
  // with a silently shortened coordinate or accuracy field.
  if (text.back() != '\n' && !Trim(lines.back()).empty()) {
    return Status::InvalidArgument(
        "truncated final line (ltc-events v1 files are newline-terminated): "
        "'" + Trim(lines.back()) + "'");
  }
  EventLog log;
  std::int64_t expected_events = -1;
  for (std::size_t i = 1; i < lines.size(); ++i) {
    const std::string line = Trim(lines[i]);
    if (line.empty()) continue;
    const auto fields = Split(line, ' ');
    const std::string& key = fields[0];
    auto need = [&](std::size_t n) -> Status {
      if (fields.size() != n) {
        return Status::InvalidArgument(
            StrFormat("line %zu: expected %zu fields, got %zu", i + 1, n,
                      fields.size()));
      }
      return Status::OK();
    };
    if (key == "epsilon") {
      LTC_RETURN_IF_ERROR(need(2));
      if (!ParseDouble(fields[1], &log.epsilon)) {
        return Status::InvalidArgument("bad epsilon");
      }
    } else if (key == "capacity") {
      LTC_RETURN_IF_ERROR(need(2));
      std::int64_t v;
      if (!ParseInt64(fields[1], &v)) {
        return Status::InvalidArgument("bad capacity");
      }
      log.capacity = static_cast<std::int32_t>(v);
    } else if (key == "acc_min") {
      LTC_RETURN_IF_ERROR(need(2));
      if (!ParseDouble(fields[1], &log.acc_min)) {
        return Status::InvalidArgument("bad acc_min");
      }
    } else if (key == "accuracy") {
      LTC_RETURN_IF_ERROR(need(3));
      double param;
      if (!ParseDouble(fields[2], &param)) {
        return Status::InvalidArgument("bad accuracy parameter");
      }
      LTC_ASSIGN_OR_RETURN(log.accuracy, MakeAccuracy(fields[1], param));
    } else if (key == "events") {
      LTC_RETURN_IF_ERROR(need(2));
      if (!ParseInt64(fields[1], &expected_events) || expected_events < 0) {
        return Status::InvalidArgument("bad event count");
      }
      // The count is untrusted: each event takes a line, so reserve no
      // more than the lines left.
      log.events.reserve(std::min(static_cast<std::size_t>(expected_events),
                                  lines.size() - i - 1));
    } else if (key == "t" || key == "w" || key == "m") {
      auto event = ParseEventRecord(line);
      if (!event.ok()) {
        return event.status().WithContext(StrFormat("line %zu", i + 1));
      }
      log.events.push_back(event.value());
    } else {
      return Status::InvalidArgument("unknown record '" + key + "'");
    }
  }
  if (expected_events >= 0 && expected_events != log.num_events()) {
    return Status::InvalidArgument(
        StrFormat("event count mismatch: declared %lld, found %lld",
                  static_cast<long long>(expected_events),
                  static_cast<long long>(log.num_events())));
  }
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
