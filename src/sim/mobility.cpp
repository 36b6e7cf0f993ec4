#include "sim/mobility.hpp"

#include <cmath>

#include "stats/distributions.hpp"
#include "stats/sim_time.hpp"

namespace wtr::sim {

namespace {

// Scatter a fresh waypoint uniformly in a disc of `radius` around (cx, cy).
void random_waypoint(devices::Device& device, double cx, double cy, double radius,
                     stats::Rng& rng) {
  const double angle = rng.uniform(0.0, 6.283185307179586);
  const double r = radius * std::sqrt(rng.uniform());
  device.east_m = cx + r * std::cos(angle);
  device.north_m = cy + r * std::sin(angle);
}

}  // namespace

TravelCorridor make_corridor(std::initializer_list<std::string_view> isos) {
  TravelCorridor corridor;
  corridor.reserve(isos.size());
  for (const std::string_view iso : isos) {
    corridor.push_back(cellnet::require_country_id(iso));
  }
  return corridor;
}

void advance_position(devices::Device& device, double dt_s, const TravelCorridor& corridor,
                      stats::Rng& rng) {
  if (dt_s <= 0.0) return;
  const auto& profile = device.profile;
  const double dt_days = dt_s / static_cast<double>(stats::kSecondsPerDay);

  switch (profile.mobility) {
    case devices::MobilityKind::kStationary: {
      // Fixed installation: the serving cell occasionally flips to a
      // neighbour (reselection), which shows up as sub-kilometer gyration
      // even for devices that never move (§5.3 notes this explicitly).
      device.east_m = device.home_east_m +
                      profile.stationary_jitter_m * stats::sample_standard_normal(rng);
      device.north_m = device.home_north_m +
                       profile.stationary_jitter_m * stats::sample_standard_normal(rng);
      break;
    }
    case devices::MobilityKind::kLocalCommuter: {
      // Random waypoint inside the commute disc; longer gaps make a new
      // waypoint more likely (a person has moved on).
      const double p_move = 1.0 - std::exp(-dt_s / (4.0 * 3600.0));
      if (rng.bernoulli(p_move)) {
        random_waypoint(device, device.home_east_m, device.home_north_m,
                        profile.commute_radius_m, rng);
      }
      break;
    }
    case devices::MobilityKind::kLongHaul: {
      // Cross-country trips first: per-day hazard from the profile,
      // restricted to the corridor. A trip re-anchors the device near the
      // destination country's anchor.
      const double p_trip = 1.0 - std::exp(-profile.p_cross_country_trip * dt_days);
      if (!corridor.empty() && rng.bernoulli(p_trip)) {
        const cellnet::CountryId destination = corridor[rng.below(corridor.size())];
        if (destination != device.current_country) {
          device.current_country = destination;
          random_waypoint(device, 0.0, 0.0, profile.commute_radius_m, rng);
          break;
        }
      }
      // Otherwise: drift within the wide long-haul disc.
      const double p_move = 1.0 - std::exp(-dt_s / (2.0 * 3600.0));
      if (rng.bernoulli(p_move)) {
        const double cx = device.current_country == device.home_country
                              ? device.home_east_m
                              : 0.0;
        const double cy = device.current_country == device.home_country
                              ? device.home_north_m
                              : 0.0;
        random_waypoint(device, cx, cy, profile.commute_radius_m, rng);
      }
      break;
    }
  }
}

}  // namespace wtr::sim
