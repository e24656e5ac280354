// Deterministic fault injection for crash-recovery testing.
//
// Production code marks interesting failure sites with a named fault point:
//
//   if (auto action = FaultPoints::Instance().Hit("wal.append")) {
//     return Status::IOError("injected: " + *action);
//   }
//
// Tests (or a parent process, via the LTC_FAULTS environment variable) arm a
// point with a countdown and an action string. The Nth call to Hit() on an
// armed point fires: actions of the form "exitNNN" terminate the process
// immediately via _Exit (simulating a crash — no destructors, no buffered
// flushes), any other action string is returned to the call site, which
// interprets it ("fail" -> return an error, "torn" -> write a partial
// record, ...). Unarmed points cost one relaxed atomic load, so fault points
// are safe to leave in hot paths.
//
// The registry is a process-wide singleton so a fault armed in a test fixture
// reaches library code without plumbing; Reset() disarms everything between
// tests.

#ifndef LTC_COMMON_FAULT_POINTS_H_
#define LTC_COMMON_FAULT_POINTS_H_

#include <atomic>
#include <cstdint>
#include <optional>
#include <string>
#include <unordered_map>

#include "common/thread_annotations.h"

namespace ltc {

class FaultPoints {
 public:
  static FaultPoints& Instance();

  /// Arms `point` to fire on its `countdown`-th Hit from now (1 = the very
  /// next hit). `action` is what the firing Hit() returns — except
  /// "exitNNN", which _Exit(NNN)s the process from inside Hit(). Re-arming
  /// an armed point replaces its countdown and action.
  void Arm(const std::string& point, std::int64_t countdown,
           const std::string& action = "fail") LTC_EXCLUDES(mu_);


  /// Disarms everything. Call between tests.
  void Reset() LTC_EXCLUDES(mu_);

  /// Reports reaching `point`. Returns the armed action when this hit fires
  /// (the point disarms itself on firing), std::nullopt otherwise. "exitNNN"
  /// actions never return: the process exits with code NNN.
  std::optional<std::string> Hit(const std::string& point) LTC_EXCLUDES(mu_);

  /// Arms points from an environment variable (default LTC_FAULTS), format
  ///   point=countdown[:action][;point=countdown[:action]]...
  /// e.g. LTC_FAULTS="svc.ingest=500:exit137;io.fsync=1:fail". Used by the
  /// recovery bench/tests to inject faults into child server processes.
  /// Malformed clauses are skipped. Returns the number of points armed.
  int ArmFromEnv(const char* env_var = "LTC_FAULTS");

 private:
  FaultPoints() = default;

  struct Entry {
    std::int64_t countdown;
    std::string action;
  };

  // Fast-path gate: unarmed processes (i.e. production) never take the lock.
  std::atomic<bool> any_armed_{false};
  Mutex mu_;
  std::unordered_map<std::string, Entry> armed_ LTC_GUARDED_BY(mu_);
};

}  // namespace ltc

#endif  // LTC_COMMON_FAULT_POINTS_H_
