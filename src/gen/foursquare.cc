#include "gen/foursquare.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <optional>
#include <vector>

#include "common/math_util.h"
#include "common/random.h"
#include "common/string_util.h"
#include "geo/grid_index.h"
#include "model/quality.h"

namespace ltc {
namespace gen {

CityPreset NewYorkPreset() {
  CityPreset city;
  city.name = "NewYork";
  city.num_tasks = 3717;
  city.num_checkins = 227428;
  city.num_users = 1083;
  city.side = 3000.0;
  city.num_districts = 12;
  return city;
}

CityPreset TokyoPreset() {
  CityPreset city;
  city.name = "Tokyo";
  city.num_tasks = 9317;
  city.num_checkins = 573703;
  city.num_users = 2293;
  city.side = 3600.0;
  city.num_districts = 16;
  return city;
}

StatusOr<model::ProblemInstance> GenerateFoursquareLike(
    const FoursquareConfig& cfg) {
  if (cfg.scale <= 0.0) {
    return Status::InvalidArgument("foursquare: scale must be positive");
  }
  const auto scaled = [&](std::int64_t n) {
    return std::max<std::int64_t>(
        1, static_cast<std::int64_t>(std::llround(
               static_cast<double>(n) * cfg.scale)));
  };
  const std::int64_t num_tasks = scaled(cfg.city.num_tasks);
  const std::int64_t num_checkins = scaled(cfg.city.num_checkins);
  const std::int64_t num_users = scaled(cfg.city.num_users);
  if (cfg.city.num_districts <= 0) {
    return Status::InvalidArgument("foursquare: need at least one district");
  }

  Rng rng(cfg.seed);
  // Shrink every linear dimension by sqrt(scale): check-in counts scale by
  // `scale`, area by `scale`, so the worker density each task sees — what
  // feasibility depends on — matches the paper-scale city.
  const double linear = std::sqrt(cfg.scale);
  const double side = cfg.city.side * linear;
  const double district_stddev = cfg.city.district_stddev * linear;
  const double home_stddev = cfg.city.home_stddev * linear;
  const double checkin_stddev = cfg.city.checkin_stddev * linear;

  // District centres in the middle 80% of the city square.
  std::vector<geo::Point> districts;
  districts.reserve(static_cast<std::size_t>(cfg.city.num_districts));
  for (std::int32_t d = 0; d < cfg.city.num_districts; ++d) {
    districts.push_back(
        {rng.Uniform(0.1 * side, 0.9 * side), rng.Uniform(0.1 * side, 0.9 * side)});
  }
  const auto random_district = [&]() -> const geo::Point& {
    return districts[static_cast<std::size_t>(
        rng.UniformInt(0, static_cast<std::int64_t>(districts.size()) - 1))];
  };
  const auto clamp_to_city = [&](geo::Point p) {
    return geo::Point{Clamp(p.x, 0.0, side), Clamp(p.y, 0.0, side)};
  };

  // Users: home district + persistent historical accuracy.
  struct User {
    geo::Point home;
    double accuracy;
  };
  std::vector<User> users;
  users.reserve(static_cast<std::size_t>(num_users));
  for (std::int64_t u = 0; u < num_users; ++u) {
    const geo::Point& d = random_district();
    User user;
    user.home = clamp_to_city({rng.Gaussian(d.x, home_stddev),
                               rng.Gaussian(d.y, home_stddev)});
    user.accuracy = Clamp(rng.Gaussian(cfg.accuracy_mean, cfg.accuracy_stddev),
                          cfg.accuracy_floor, cfg.accuracy_ceil);
    users.push_back(user);
  }

  // Check-in stream: user sampled Zipf (power users check in often), located
  // near the user's home; arrival order is an independent interleaving, which
  // the Zipf draw already provides.
  model::ProblemInstance instance;
  instance.epsilon = cfg.epsilon;
  instance.capacity = cfg.capacity;
  instance.acc_min = cfg.acc_min;
  instance.accuracy = std::make_shared<model::SigmoidDistanceAccuracy>(cfg.dmax);
  instance.workers.reserve(static_cast<std::size_t>(num_checkins));
  for (std::int64_t i = 0; i < num_checkins; ++i) {
    const auto uid = rng.Zipf(num_users, cfg.city.zipf_exponent);
    const User& user = users[static_cast<std::size_t>(uid)];
    model::Worker w;
    w.index = static_cast<model::WorkerIndex>(i + 1);
    w.user_id = uid;
    w.historical_accuracy = user.accuracy;
    w.location =
        clamp_to_city({rng.Gaussian(user.home.x, checkin_stddev),
                       rng.Gaussian(user.home.y, checkin_stddev)});
    instance.workers.push_back(w);
  }

  // Tasks: POIs inside the workers' activity region — each task is planted
  // near a uniformly sampled check-in (the paper samples POIs within the
  // convex hull of check-ins; anchoring to a check-in guarantees the task
  // actually has nearby workers, which the convex hull alone would not).
  //
  // Feasibility: the paper assumes every task can reach the tolerable error
  // rate, so anchors whose neighbourhood cannot supply feasibility_safety
  // times delta worth of Acc* over the whole stream are rejected and
  // resampled (isolated one-off check-ins would otherwise strand a task).
  if (cfg.feasibility_safety > 0.0 &&
      (cfg.feasibility_reference_epsilon <= 0.0 ||
       cfg.feasibility_reference_epsilon >= 1.0)) {
    return Status::InvalidArgument(
        "foursquare: feasibility_reference_epsilon must be in (0, 1)");
  }
  const double reference_delta =
      cfg.feasibility_safety > 0.0
          ? model::DeltaFromEpsilon(cfg.feasibility_reference_epsilon)
          : 0.0;
  const double required_mass = cfg.feasibility_safety * reference_delta;
  std::optional<geo::GridIndex> worker_grid;
  if (required_mass > 0.0) {
    std::vector<geo::Point> worker_points;
    worker_points.reserve(instance.workers.size());
    for (const auto& w : instance.workers) worker_points.push_back(w.location);
    auto grid = geo::GridIndex::Build(std::move(worker_points), cfg.dmax);
    LTC_RETURN_IF_ERROR(grid.status());
    worker_grid.emplace(std::move(grid).value());
  }
  const model::SigmoidDistanceAccuracy sigmoid_acc(cfg.dmax);
  std::vector<std::int64_t> nearby;
  const auto eligible_mass = [&](const geo::Point& loc) {
    model::Task probe;
    probe.location = loc;
    // dmax + 5 covers the eligibility radius of even a perfect worker.
    worker_grid->QueryRadius(loc, cfg.dmax + 5.0, &nearby);
    double mass = 0.0;
    for (std::int64_t wi : nearby) {
      // Grid ids are positions; the (wi + 1)-th check-in has index wi + 1.
      const model::Worker& w =
          instance.worker(static_cast<model::WorkerIndex>(wi + 1));
      if (sigmoid_acc.Acc(w, probe) >= cfg.acc_min) {
        mass += sigmoid_acc.AccStar(w, probe);
      }
    }
    return mass;
  };

  instance.tasks.reserve(static_cast<std::size_t>(num_tasks));
  constexpr int kMaxAnchorTries = 64;
  for (std::int64_t t = 0; t < num_tasks; ++t) {
    model::Task task;
    task.id = static_cast<model::TaskId>(t);
    for (int attempt = 0; attempt < kMaxAnchorTries; ++attempt) {
      const auto anchor =
          static_cast<model::WorkerIndex>(rng.UniformInt(0, num_checkins - 1));
      const geo::Point& base = instance.worker(anchor + 1).location;
      task.location =
          clamp_to_city({rng.Gaussian(base.x, district_stddev / 10.0),
                         rng.Gaussian(base.y, district_stddev / 10.0)});
      if (required_mass <= 0.0 || eligible_mass(task.location) >= required_mass)
        break;
      if (attempt == kMaxAnchorTries - 1) {
        return Status::Internal(
            StrFormat("foursquare: no feasible anchor for task %lld after %d "
                      "tries; stream too sparse for epsilon=%g",
                      static_cast<long long>(t), kMaxAnchorTries,
                      cfg.epsilon));
      }
    }
    instance.tasks.push_back(task);
  }

  LTC_RETURN_IF_ERROR(
      instance.Validate().WithContext("GenerateFoursquareLike"));
  return instance;
}

}  // namespace gen
}  // namespace ltc
