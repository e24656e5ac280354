#include "io/workload_io.h"

#include <algorithm>
#include <cstdio>
#include <memory>

#include "common/string_util.h"
#include "model/accuracy.h"

namespace ltc {
namespace io {

namespace {

constexpr char kHeader[] = "# ltc-workload v1";

}  // namespace

StatusOr<std::string> AccuracyLine(const model::AccuracyFunction& fn) {
  const std::string name = fn.Name();
  if (StartsWith(name, "sigmoid")) {
    const auto* sigmoid =
        dynamic_cast<const model::SigmoidDistanceAccuracy*>(&fn);
    if (sigmoid != nullptr) {
      return StrFormat("accuracy sigmoid %.17g", sigmoid->dmax());
    }
  }
  if (StartsWith(name, "step")) {
    // StepDistanceAccuracy does not expose dmax; re-derive from the name.
    double dmax;
    const auto open = name.find('=');
    const auto close = name.find(')');
    if (open != std::string::npos && close != std::string::npos &&
        ParseDouble(name.substr(open + 1, close - open - 1), &dmax)) {
      return StrFormat("accuracy step %.17g", dmax);
    }
  }
  if (name == "flat") return std::string("accuracy flat 0");
  return Status::NotImplemented("accuracy model '" + name +
                                "' is not serialisable");
}

StatusOr<std::shared_ptr<const model::AccuracyFunction>> MakeAccuracy(
    const std::string& kind, double param) {
  if (kind == "sigmoid") {
    return std::shared_ptr<const model::AccuracyFunction>(
        std::make_shared<model::SigmoidDistanceAccuracy>(param));
  }
  if (kind == "step") {
    return std::shared_ptr<const model::AccuracyFunction>(
        std::make_shared<model::StepDistanceAccuracy>(param));
  }
  if (kind == "flat") {
    return std::shared_ptr<const model::AccuracyFunction>(
        std::make_shared<model::FlatAccuracy>());
  }
  return Status::InvalidArgument("unknown accuracy kind '" + kind + "'");
}

StatusOr<std::string> SerializeInstance(
    const model::ProblemInstance& instance) {
  LTC_RETURN_IF_ERROR(instance.Validate());
  LTC_ASSIGN_OR_RETURN(std::string accuracy_line,
                       AccuracyLine(*instance.accuracy));
  std::string out = kHeader;
  out += '\n';
  out += StrFormat("epsilon %.17g\n", instance.epsilon);
  out += StrFormat("capacity %d\n", instance.capacity);
  out += StrFormat("acc_min %.17g\n", instance.acc_min);
  out += accuracy_line + "\n";
  out += StrFormat("tasks %lld\n", static_cast<long long>(instance.num_tasks()));
  for (const model::Task& t : instance.tasks) {
    out += StrFormat("t %d %.17g %.17g\n", t.id, t.location.x, t.location.y);
  }
  out += StrFormat("workers %lld\n",
                   static_cast<long long>(instance.num_workers()));
  for (const model::Worker& w : instance.workers) {
    out += StrFormat("w %d %.17g %.17g %.17g %lld\n", w.index, w.location.x,
                     w.location.y, w.historical_accuracy,
                     static_cast<long long>(w.user_id));
  }
  return out;
}

StatusOr<model::ProblemInstance> ParseInstance(const std::string& text) {
  const std::vector<std::string> lines = Split(text, '\n');
  if (lines.empty() || Trim(lines[0]) != kHeader) {
    return Status::InvalidArgument("missing ltc-workload v1 header");
  }
  model::ProblemInstance instance;
  std::size_t i = 1;
  std::int64_t expected_tasks = -1;
  std::int64_t expected_workers = -1;
  for (; i < lines.size(); ++i) {
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
      if (!ParseDouble(fields[1], &instance.epsilon)) {
        return Status::InvalidArgument("bad epsilon");
      }
    } else if (key == "capacity") {
      LTC_RETURN_IF_ERROR(need(2));
      std::int64_t v;
      if (!ParseInt64(fields[1], &v)) {
        return Status::InvalidArgument("bad capacity");
      }
      instance.capacity = static_cast<std::int32_t>(v);
    } else if (key == "acc_min") {
      LTC_RETURN_IF_ERROR(need(2));
      if (!ParseDouble(fields[1], &instance.acc_min)) {
        return Status::InvalidArgument("bad acc_min");
      }
    } else if (key == "accuracy") {
      LTC_RETURN_IF_ERROR(need(3));
      double param;
      if (!ParseDouble(fields[2], &param)) {
        return Status::InvalidArgument("bad accuracy parameter");
      }
      LTC_ASSIGN_OR_RETURN(instance.accuracy, MakeAccuracy(fields[1], param));
    } else if (key == "tasks") {
      LTC_RETURN_IF_ERROR(need(2));
      if (!ParseInt64(fields[1], &expected_tasks) || expected_tasks < 0) {
        return Status::InvalidArgument("bad task count");
      }
      // Untrusted: reserve no more than the lines left (one per task).
      instance.tasks.reserve(std::min(static_cast<std::size_t>(expected_tasks),
                                   lines.size() - i - 1));
    } else if (key == "t") {
      LTC_RETURN_IF_ERROR(need(4));
      model::Task t;
      std::int64_t id;
      if (!ParseInt64(fields[1], &id) ||
          !ParseDouble(fields[2], &t.location.x) ||
          !ParseDouble(fields[3], &t.location.y)) {
        return Status::InvalidArgument(StrFormat("bad task line %zu", i + 1));
      }
      t.id = static_cast<model::TaskId>(id);
      instance.tasks.push_back(t);
    } else if (key == "workers") {
      LTC_RETURN_IF_ERROR(need(2));
      if (!ParseInt64(fields[1], &expected_workers) || expected_workers < 0) {
        return Status::InvalidArgument("bad worker count");
      }
      // Untrusted: reserve no more than the lines left (one per worker).
      instance.workers.reserve(std::min(
          static_cast<std::size_t>(expected_workers), lines.size() - i - 1));
    } else if (key == "w") {
      LTC_RETURN_IF_ERROR(need(6));
      model::Worker w;
      std::int64_t index;
      if (!ParseInt64(fields[1], &index) ||
          !ParseDouble(fields[2], &w.location.x) ||
          !ParseDouble(fields[3], &w.location.y) ||
          !ParseDouble(fields[4], &w.historical_accuracy) ||
          !ParseInt64(fields[5], &w.user_id)) {
        return Status::InvalidArgument(StrFormat("bad worker line %zu", i + 1));
      }
      w.index = static_cast<model::WorkerIndex>(index);
      instance.workers.push_back(w);
    } else {
      return Status::InvalidArgument("unknown record '" + key + "'");
    }
  }
  if (expected_tasks >= 0 && expected_tasks != instance.num_tasks()) {
    return Status::InvalidArgument(
        StrFormat("task count mismatch: declared %lld, found %lld",
                  static_cast<long long>(expected_tasks),
                  static_cast<long long>(instance.num_tasks())));
  }
  if (expected_workers >= 0 && expected_workers != instance.num_workers()) {
    return Status::InvalidArgument(
        StrFormat("worker count mismatch: declared %lld, found %lld",
                  static_cast<long long>(expected_workers),
                  static_cast<long long>(instance.num_workers())));
  }
  LTC_RETURN_IF_ERROR(instance.Validate().WithContext("ParseInstance"));
  return instance;
}

Status SaveInstance(const model::ProblemInstance& instance,
                    const std::string& path) {
  LTC_ASSIGN_OR_RETURN(std::string text, SerializeInstance(instance));
  return WriteFile(path, text);
}

StatusOr<model::ProblemInstance> LoadInstance(const std::string& path) {
  LTC_ASSIGN_OR_RETURN(std::string text, ReadFile(path));
  auto parsed = ParseInstance(text);
  if (!parsed.ok()) return parsed.status().WithContext("loading " + path);
  return parsed;
}

std::string SerializeArrangement(const model::Arrangement& arrangement) {
  std::string out = "# ltc-arrangement v1\n";
  for (const model::Assignment& a : arrangement.assignments()) {
    out += StrFormat("a %d %d\n", a.worker, a.task);
  }
  return out;
}

StatusOr<model::Arrangement> ParseArrangement(
    const model::ProblemInstance& instance, const std::string& text) {
  const std::vector<std::string> lines = Split(text, '\n');
  if (lines.empty() || Trim(lines[0]) != "# ltc-arrangement v1") {
    return Status::InvalidArgument("missing ltc-arrangement v1 header");
  }
  model::Arrangement arrangement(instance.num_tasks(), instance.Delta());
  for (std::size_t i = 1; i < lines.size(); ++i) {
    const std::string line = Trim(lines[i]);
    if (line.empty()) continue;
    const auto fields = Split(line, ' ');
    std::int64_t worker;
    std::int64_t task;
    if (fields.size() != 3 || fields[0] != "a" ||
        !ParseInt64(fields[1], &worker) || !ParseInt64(fields[2], &task)) {
      return Status::InvalidArgument(
          StrFormat("bad arrangement line %zu", i + 1));
    }
    if (worker < 1 || worker > instance.num_workers() || task < 0 ||
        task >= instance.num_tasks()) {
      return Status::OutOfRange(
          StrFormat("arrangement line %zu references unknown ids", i + 1));
    }
    const auto w = static_cast<model::WorkerIndex>(worker);
    const auto t = static_cast<model::TaskId>(task);
    arrangement.Add(w, t, instance.AccStar(w, t));
  }
  return arrangement;
}

StatusOr<std::string> ReadFile(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    return Status::IOError("cannot open '" + path + "' for reading");
  }
  std::string out;
  char buf[1 << 16];
  std::size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) {
    out.append(buf, n);
  }
  const bool failed = std::ferror(f) != 0;
  std::fclose(f);
  if (failed) return Status::IOError("error reading '" + path + "'");
  return out;
}

Status WriteFile(const std::string& path, const std::string& content) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) {
    return Status::IOError("cannot open '" + path + "' for writing");
  }
  const std::size_t written = std::fwrite(content.data(), 1, content.size(), f);
  std::fclose(f);
  if (written != content.size()) {
    return Status::IOError("short write to '" + path + "'");
  }
  return Status::OK();
}

}  // namespace io
}  // namespace ltc
