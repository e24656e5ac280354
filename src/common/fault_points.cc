#include "common/fault_points.h"

#include <cstdlib>

#include "common/string_util.h"

namespace ltc {

FaultPoints& FaultPoints::Instance() {
  static FaultPoints* instance = new FaultPoints();
  return *instance;
}

void FaultPoints::Arm(const std::string& point, std::int64_t countdown,
                      const std::string& action) {
  MutexLock lock(&mu_);
  armed_[point] = Entry{countdown, action};
  any_armed_.store(true, std::memory_order_release);
}

void FaultPoints::Reset() {
  MutexLock lock(&mu_);
  armed_.clear();
  any_armed_.store(false, std::memory_order_release);
}

std::optional<std::string> FaultPoints::Hit(const std::string& point) {
  if (!any_armed_.load(std::memory_order_acquire)) return std::nullopt;
  std::string action;
  {
    MutexLock lock(&mu_);
    auto it = armed_.find(point);
    if (it == armed_.end()) return std::nullopt;
    if (--it->second.countdown > 0) return std::nullopt;
    action = std::move(it->second.action);
    armed_.erase(it);
    if (armed_.empty()) any_armed_.store(false, std::memory_order_release);
  }
  // "exitNNN" simulates a crash: no destructors run, buffered state is lost.
  if (action.size() > 4 && action.compare(0, 4, "exit") == 0) {
    std::int64_t code = 0;
    if (ParseInt64(action.substr(4), &code)) {
      std::_Exit(static_cast<int>(code));
    }
  }
  return action;
}

int FaultPoints::ArmFromEnv(const char* env_var) {
  const char* spec = std::getenv(env_var);
  if (spec == nullptr || *spec == '\0') return 0;
  int armed = 0;
  for (const std::string& clause : Split(spec, ';')) {
    std::string trimmed = Trim(clause);
    if (trimmed.empty()) continue;
    std::size_t eq = trimmed.find('=');
    if (eq == std::string::npos || eq == 0) continue;
    std::string point = Trim(trimmed.substr(0, eq));
    std::string rest = Trim(trimmed.substr(eq + 1));
    std::string action = "fail";
    std::size_t colon = rest.find(':');
    if (colon != std::string::npos) {
      action = Trim(rest.substr(colon + 1));
      rest = Trim(rest.substr(0, colon));
    }
    std::int64_t countdown = 0;
    if (!ParseInt64(rest, &countdown) || countdown <= 0 || action.empty()) {
      continue;
    }
    Arm(point, countdown, action);
    ++armed;
  }
  return armed;
}

}  // namespace ltc
