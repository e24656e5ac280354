// Plain-text (de)serialisation of problem instances and arrangements, so
// workloads can be generated once, archived, replayed across machines, and
// attached to bug reports. The format is line-oriented and versioned.
//
//   # ltc-workload v1
//   epsilon 0.1
//   capacity 6
//   acc_min 0.66
//   accuracy sigmoid 30
//   tasks 2
//   t 0 12.5 40.25
//   t 1 99 3
//   workers 1
//   w 1 5.0 6.0 0.92 -1
//
// Only the distance-based accuracy models round-trip (sigmoid/step/flat);
// matrix accuracies are test fixtures and are not serialised.

#ifndef LTC_IO_WORKLOAD_IO_H_
#define LTC_IO_WORKLOAD_IO_H_

#include <memory>
#include <string>

#include "common/file_util.h"
#include "common/line_scanner.h"
#include "common/status.h"
#include "model/accuracy.h"
#include "model/arrangement.h"
#include "model/problem.h"

namespace ltc {
namespace io {

/// Renders an accuracy model as its "accuracy <kind> <param>" line — the
/// encoding shared by the workload and event-log (event_log.h) formats.
/// NotImplemented for models without a serialisable form (matrix fixtures).
StatusOr<std::string> AccuracyLine(const model::AccuracyFunction& fn);

/// Inverse of AccuracyLine: reads the "<kind> <param>" fields after the
/// scanner's "accuracy" key and builds the model they name.
StatusOr<std::shared_ptr<const model::AccuracyFunction>> ReadAccuracy(
    LineScanner& scan);

/// InvalidArgument unless a declared record count (-1: none declared)
/// matches the records read; shared with the event-log reader.
Status CheckCount(const char* records, std::int64_t declared,
                  std::int64_t found);

/// Serialises the instance into the v1 text format.
StatusOr<std::string> SerializeInstance(const model::ProblemInstance& instance);

/// Parses the v1 text format back into an instance.
StatusOr<model::ProblemInstance> ParseInstance(const std::string& text);

/// Writes SerializeInstance output to a file.
Status SaveInstance(const model::ProblemInstance& instance,
                    const std::string& path);

/// Reads a file saved with SaveInstance.
StatusOr<model::ProblemInstance> LoadInstance(const std::string& path);

/// Serialises an arrangement as "a <worker> <task>" lines, one per listed
/// assignment in commit order (ltc_run --save_arrangement; write-only).
std::string SerializeArrangement(const model::Arrangement& arrangement);

/// Whole-file reads and writes (common/file_util.h).
using ::ltc::ReadFile;
using ::ltc::WriteFile;

}  // namespace io
}  // namespace ltc

#endif  // LTC_IO_WORKLOAD_IO_H_
