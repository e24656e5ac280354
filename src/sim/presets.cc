#include "sim/presets.h"

namespace ltc {
namespace sim {

gen::SyntheticConfig TableFourDefaults() {
  return gen::SyntheticConfig{};  // defaults are Table IV's bold values
}

std::vector<std::int64_t> TableFourTaskLevels() {
  return {1000, 2000, 3000, 4000, 5000};
}

std::vector<std::int32_t> TableFourCapacityLevels() { return {4, 5, 6, 7, 8}; }

std::vector<double> TableFourAccuracyMeanLevels() {
  return {0.82, 0.84, 0.86, 0.88, 0.90};
}

std::vector<double> TableFourEpsilonLevels() {
  return {0.06, 0.10, 0.14, 0.18, 0.22};
}

std::vector<std::int64_t> TableFourScalabilityTasks() {
  return {10000, 20000, 30000, 40000, 50000, 100000};
}

std::int64_t TableFourScalabilityWorkers() { return 400000; }

gen::FoursquareConfig TableFiveNewYork() {
  gen::FoursquareConfig cfg;
  cfg.city = gen::NewYorkPreset();
  return cfg;
}

gen::FoursquareConfig TableFiveTokyo() {
  gen::FoursquareConfig cfg;
  cfg.city = gen::TokyoPreset();
  return cfg;
}

}  // namespace sim
}  // namespace ltc
