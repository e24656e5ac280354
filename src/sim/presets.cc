#include "sim/presets.h"

#include "common/string_util.h"

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

namespace {

template <typename T>
std::vector<std::string> Render(const std::vector<T>& levels,
                                const char* fmt) {
  std::vector<std::string> out;
  out.reserve(levels.size());
  for (const T& level : levels) {
    out.push_back(StrFormat(fmt, level));
  }
  return out;
}

}  // namespace

std::vector<FigureSpec> PaperFigureIndex() {
  const std::vector<std::int64_t> task_levels = TableFourTaskLevels();
  const std::vector<std::int64_t> scalability_tasks =
      TableFourScalabilityTasks();
  std::vector<FigureSpec> index;
  index.push_back(FigureSpec{
      "3a/3e/3i", "|T|",
      Render(std::vector<long long>(task_levels.begin(), task_levels.end()),
             "%lld"),
      "fig3_tasks"});
  index.push_back(FigureSpec{
      "3b/3f/3j", "K",
      Render(TableFourCapacityLevels(), "%d"), "fig3_capacity"});
  index.push_back(FigureSpec{"3c/3g/3k", "mu",
                             Render(TableFourAccuracyMeanLevels(), "%.2f"),
                             "fig3_accuracy_normal"});
  index.push_back(FigureSpec{"3d/3h/3l", "mean",
                             Render(TableFourAccuracyMeanLevels(), "%.2f"),
                             "fig3_accuracy_uniform"});
  index.push_back(FigureSpec{"4a/4e/4i", "eps",
                             Render(TableFourEpsilonLevels(), "%.2f"),
                             "fig4_epsilon"});
  index.push_back(FigureSpec{
      "4b/4f/4j", "|T|",
      Render(std::vector<long long>(scalability_tasks.begin(),
                                    scalability_tasks.end()),
             "%lld"),
      "fig4_scalability"});
  index.push_back(FigureSpec{"4c/4g/4k", "eps",
                             Render(TableFourEpsilonLevels(), "%.2f"),
                             "fig4_newyork"});
  index.push_back(FigureSpec{"4d/4h/4l", "eps",
                             Render(TableFourEpsilonLevels(), "%.2f"),
                             "fig4_tokyo"});
  return index;
}

}  // namespace sim
}  // namespace ltc
