#include "io/workload_io.h"

#include <memory>

#include "common/string_util.h"
#include "model/accuracy.h"

namespace ltc {
namespace io {

namespace {

constexpr char kHeader[] = "# ltc-workload v1";

}  // namespace

StatusOr<std::string> AccuracyLine(const model::AccuracyFunction& fn) {
  std::string out;
  if (const auto* sigmoid =
          dynamic_cast<const model::SigmoidDistanceAccuracy*>(&fn)) {
    out = "accuracy sigmoid";
    AppendRealField(&out, sigmoid->dmax());
  } else if (const auto* step =
                 dynamic_cast<const model::StepDistanceAccuracy*>(&fn)) {
    out = "accuracy step";
    AppendRealField(&out, step->dmax());
  } else if (fn.Name() == "flat") {
    out = "accuracy flat 0";
  } else {
    return Status::NotImplemented("accuracy model '" + fn.Name() +
                                  "' is not serialisable");
  }
  return out;
}

StatusOr<std::shared_ptr<const model::AccuracyFunction>> ReadAccuracy(
    LineScanner& scan) {
  std::string_view kind;
  double param = 0.0;
  LTC_RETURN_IF_ERROR(scan.Field(&kind));
  LTC_RETURN_IF_ERROR(scan.Real(&param));
  std::shared_ptr<const model::AccuracyFunction> fn;
  if (kind == "sigmoid") {
    fn = std::make_shared<model::SigmoidDistanceAccuracy>(param);
  } else if (kind == "step") {
    fn = std::make_shared<model::StepDistanceAccuracy>(param);
  } else if (kind == "flat") {
    fn = std::make_shared<model::FlatAccuracy>();
  } else {
    return scan.Error("unknown accuracy kind");
  }
  return fn;
}

Status CheckCount(const char* records, std::int64_t declared,
                  std::int64_t found) {
  if (declared < 0 || declared == found) return Status::OK();
  return Status::InvalidArgument(
      StrFormat("%s count mismatch: declared %lld, found %lld", records,
                static_cast<long long>(declared),
                static_cast<long long>(found)));
}

StatusOr<std::string> SerializeInstance(
    const model::ProblemInstance& instance) {
  LTC_RETURN_IF_ERROR(instance.Validate());
  LTC_ASSIGN_OR_RETURN(std::string accuracy_line,
                       AccuracyLine(*instance.accuracy));
  std::string out = std::string(kHeader) + "\nepsilon";
  AppendRealField(&out, instance.epsilon);
  out += "\ncapacity " + std::to_string(instance.capacity) + "\nacc_min";
  AppendRealField(&out, instance.acc_min);
  out += '\n' + accuracy_line + "\ntasks " +
         std::to_string(instance.num_tasks()) + '\n';
  for (const model::Task& t : instance.tasks) {
    out += "t " + std::to_string(t.id);
    AppendRealField(&out, t.location.x);
    AppendRealField(&out, t.location.y);
    out += '\n';
  }
  out += "workers " + std::to_string(instance.num_workers()) + '\n';
  for (const model::Worker& w : instance.workers) {
    out += "w " + std::to_string(w.index);
    AppendRealField(&out, w.location.x);
    AppendRealField(&out, w.location.y);
    AppendRealField(&out, w.historical_accuracy);
    out += ' ' + std::to_string(w.user_id) + '\n';
  }
  return out;
}

StatusOr<model::ProblemInstance> ParseInstance(const std::string& text) {
  LineScanner scan(text, "ltc-workload");
  LTC_RETURN_IF_ERROR(scan.Header(kHeader));
  model::ProblemInstance instance;
  std::int64_t expected_tasks = -1;
  std::int64_t expected_workers = -1;
  while (scan.NextRecord()) {
    std::string_view key;
    LTC_RETURN_IF_ERROR(scan.Field(&key));
    if (key == "epsilon") {
      LTC_RETURN_IF_ERROR(scan.Real(&instance.epsilon));
    } else if (key == "capacity") {
      LTC_RETURN_IF_ERROR(scan.Int(&instance.capacity));
    } else if (key == "acc_min") {
      LTC_RETURN_IF_ERROR(scan.Real(&instance.acc_min));
    } else if (key == "accuracy") {
      LTC_ASSIGN_OR_RETURN(instance.accuracy, ReadAccuracy(scan));
    } else if (key == "tasks") {
      // Untrusted counts: one line per record, so no more than the lines
      // left.
      LTC_RETURN_IF_ERROR(scan.Int(&expected_tasks, 0, scan.lines_left()));
      instance.tasks.reserve(static_cast<std::size_t>(expected_tasks));
    } else if (key == "t") {
      model::Task t;
      LTC_RETURN_IF_ERROR(scan.Int(&t.id, 0));
      LTC_RETURN_IF_ERROR(scan.Real(&t.location.x));
      LTC_RETURN_IF_ERROR(scan.Real(&t.location.y));
      instance.tasks.push_back(t);
    } else if (key == "workers") {
      LTC_RETURN_IF_ERROR(scan.Int(&expected_workers, 0, scan.lines_left()));
      instance.workers.reserve(static_cast<std::size_t>(expected_workers));
    } else if (key == "w") {
      model::Worker w;
      LTC_RETURN_IF_ERROR(scan.Int(&w.index, 1));
      LTC_RETURN_IF_ERROR(scan.Real(&w.location.x));
      LTC_RETURN_IF_ERROR(scan.Real(&w.location.y));
      LTC_RETURN_IF_ERROR(scan.Real(&w.historical_accuracy));
      LTC_RETURN_IF_ERROR(scan.Int(&w.user_id));
      instance.workers.push_back(w);
    } else {
      return scan.Error("unknown record");
    }
    LTC_RETURN_IF_ERROR(scan.EndLine());
  }
  LTC_RETURN_IF_ERROR(scan.Finish());
  LTC_RETURN_IF_ERROR(CheckCount("task", expected_tasks, instance.num_tasks()));
  LTC_RETURN_IF_ERROR(
      CheckCount("worker", expected_workers, instance.num_workers()));
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

}  // namespace io
}  // namespace ltc
