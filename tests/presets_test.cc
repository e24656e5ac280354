// Asserts the preset registry matches Table IV / Table V and that the figure
// index covers every evaluation plot of the paper.

#include "sim/presets.h"

#include <gtest/gtest.h>

#include <set>

#include "oracles/paper_tables.h"

namespace ltc {
namespace sim {
namespace {

TEST(PresetsTest, TableFourDefaultsAreBoldValues) {
  const auto cfg = TableFourDefaults();
  EXPECT_EQ(cfg.num_tasks, 3000);
  EXPECT_EQ(cfg.num_workers, 40000);
  EXPECT_EQ(cfg.capacity, 6);
  EXPECT_DOUBLE_EQ(cfg.epsilon, 0.10);
  EXPECT_DOUBLE_EQ(cfg.accuracy_mean, 0.86);
  EXPECT_DOUBLE_EQ(cfg.accuracy_stddev, 0.05);
  EXPECT_DOUBLE_EQ(cfg.grid_side, 1000.0);
  EXPECT_DOUBLE_EQ(cfg.dmax, 30.0);
}

TEST(PresetsTest, TableFourFactorGrids) {
  EXPECT_EQ(TableFourTaskLevels(),
            (std::vector<std::int64_t>{1000, 2000, 3000, 4000, 5000}));
  EXPECT_EQ(TableFourCapacityLevels(),
            (std::vector<std::int32_t>{4, 5, 6, 7, 8}));
  EXPECT_EQ(TableFourAccuracyMeanLevels(),
            (std::vector<double>{0.82, 0.84, 0.86, 0.88, 0.90}));
  EXPECT_EQ(TableFourEpsilonLevels(),
            (std::vector<double>{0.06, 0.10, 0.14, 0.18, 0.22}));
  EXPECT_EQ(TableFourScalabilityTasks(),
            (std::vector<std::int64_t>{10000, 20000, 30000, 40000, 50000,
                                       100000}));
  EXPECT_EQ(TableFourScalabilityWorkers(), 400000);
}

TEST(PresetsTest, TableFiveCities) {
  const auto ny = TableFiveNewYork();
  EXPECT_EQ(ny.city.name, "NewYork");
  EXPECT_EQ(ny.city.num_tasks, 3717);
  EXPECT_EQ(ny.city.num_checkins, 227428);
  EXPECT_EQ(ny.capacity, 6);
  EXPECT_DOUBLE_EQ(ny.accuracy_mean, 0.86);
  EXPECT_DOUBLE_EQ(ny.accuracy_stddev, 0.05);
  const auto tokyo = TableFiveTokyo();
  EXPECT_EQ(tokyo.city.name, "Tokyo");
  EXPECT_EQ(tokyo.city.num_tasks, 9317);
  EXPECT_EQ(tokyo.city.num_checkins, 573703);
}

TEST(PresetsTest, FigureIndexCoversAllTwentyFourPanels) {
  const auto index = PaperFigureIndex();
  ASSERT_EQ(index.size(), 8u);  // 8 sweeps x 3 metrics = 24 panels
  std::set<std::string> panels;
  std::set<std::string> labels;
  for (const auto& spec : index) {
    EXPECT_FALSE(spec.levels.empty()) << spec.paper_figures;
    EXPECT_FALSE(spec.factor.empty());
    panels.insert(spec.paper_figures);
    labels.insert(spec.suite_label);
    // Five levels everywhere except the six-point scalability sweep.
    if (spec.suite_label == "fig4_scalability") {
      EXPECT_EQ(spec.levels.size(), 6u);
    } else {
      EXPECT_EQ(spec.levels.size(), 5u);
    }
  }
  EXPECT_EQ(panels.size(), 8u);
  EXPECT_EQ(labels.size(), 8u);
  // Figure 3 and Figure 4 are both covered, panels a-l each.
  EXPECT_TRUE(panels.count("3a/3e/3i"));
  EXPECT_TRUE(panels.count("3d/3h/3l"));
  EXPECT_TRUE(panels.count("4a/4e/4i"));
  EXPECT_TRUE(panels.count("4d/4h/4l"));
}

}  // namespace
}  // namespace sim
}  // namespace ltc
