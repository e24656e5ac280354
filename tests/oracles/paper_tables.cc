#include "oracles/paper_tables.h"

#include "common/string_util.h"
#include "sim/presets.h"

namespace ltc {
namespace model {

LatencyBounds TheoremTwoBounds(std::int64_t num_tasks, double delta,
                               std::int64_t capacity) {
  LatencyBounds bounds;
  const double t = static_cast<double>(num_tasks);
  const double k = static_cast<double>(capacity);
  bounds.lower = t * delta / k;
  bounds.upper = 10.0 * t * delta / k + t / k + 1.0;
  return bounds;
}

}  // namespace model

namespace sim {

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
