#include "algo/registry.h"

#include "algo/aam.h"
#include "algo/base_off.h"
#include "algo/exhaustive.h"
#include "algo/laf.h"
#include "algo/mcf_ltc.h"
#include "algo/mcf_stream.h"
#include "algo/random_assign.h"

namespace ltc {
namespace algo {

StatusOr<bool> IsOnlineAlgorithm(const std::string& name) {
  if (name == "MCF-LTC" || name == "Base-off" || name == "Exhaustive") {
    return false;
  }
  if (name == "LAF" || name == "AAM" || name == "Random" ||
      name == "LGF-only" || name == "LRF-only" || name == "MCF") {
    return true;
  }
  return Status::NotFound("unknown algorithm '" + name + "'");
}

std::vector<std::string> StandardAlgorithms() {
  return {"Base-off", "MCF-LTC", "Random", "LAF", "AAM"};
}

StatusOr<std::unique_ptr<OfflineScheduler>> MakeOfflineScheduler(
    const std::string& name) {
  if (name == "MCF-LTC") return std::unique_ptr<OfflineScheduler>(new McfLtc());
  if (name == "Base-off") {
    return std::unique_ptr<OfflineScheduler>(new BaseOff());
  }
  if (name == "Exhaustive") {
    return std::unique_ptr<OfflineScheduler>(new Exhaustive());
  }
  return Status::NotFound("unknown offline algorithm '" + name + "'");
}

StatusOr<std::unique_ptr<OnlineScheduler>> MakeOnlineScheduler(
    const std::string& name, std::uint64_t seed) {
  if (name == "LAF") return std::unique_ptr<OnlineScheduler>(new Laf());
  if (name == "AAM") return std::unique_ptr<OnlineScheduler>(new Aam());
  if (name == "LGF-only") {
    AamOptions options;
    options.force = AamOptions::Force::kLgfOnly;
    return std::unique_ptr<OnlineScheduler>(new Aam(options));
  }
  if (name == "LRF-only") {
    AamOptions options;
    options.force = AamOptions::Force::kLrfOnly;
    return std::unique_ptr<OnlineScheduler>(new Aam(options));
  }
  if (name == "Random") {
    return std::unique_ptr<OnlineScheduler>(new RandomAssign(seed));
  }
  if (name == "MCF") {
    // Streaming MCF-LTC, the batch loop McfLtc::Run drives. Callers that need
    // non-default warm-start options construct McfStream directly.
    return std::unique_ptr<OnlineScheduler>(new McfStream());
  }
  return Status::NotFound("unknown online algorithm '" + name + "'");
}

}  // namespace algo
}  // namespace ltc
