// Programmatic registry of the paper's experimental design: Table IV's
// synthetic factor grid and Table V's real-dataset settings. The bench
// binaries mirror these presets; tests assert the two never drift apart
// (the figure index they compare against is tests/oracles/paper_tables.h).

#ifndef LTC_SIM_PRESETS_H_
#define LTC_SIM_PRESETS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "gen/foursquare.h"
#include "gen/synthetic.h"

namespace ltc {
namespace sim {

/// Table IV defaults (bold values): |T|=3000, |W|=40000, K=6, eps=0.1,
/// N(0.86, 0.05) accuracies on the 1000x1000 grid with dmax=30.
gen::SyntheticConfig TableFourDefaults();

/// Table IV factor levels.
std::vector<std::int64_t> TableFourTaskLevels();        // {1000..5000}
std::vector<std::int32_t> TableFourCapacityLevels();    // {4..8}
std::vector<double> TableFourAccuracyMeanLevels();      // {0.82..0.90}
std::vector<double> TableFourEpsilonLevels();           // {0.06..0.22}
std::vector<std::int64_t> TableFourScalabilityTasks();  // {10K..100K}
/// |W| for the scalability row.
std::int64_t TableFourScalabilityWorkers();             // 400K

/// Table V real-dataset settings (simulated; see DESIGN.md §5).
gen::FoursquareConfig TableFiveNewYork();
gen::FoursquareConfig TableFiveTokyo();

}  // namespace sim
}  // namespace ltc

#endif  // LTC_SIM_PRESETS_H_
