#pragma once

// Mobility processes. Three regimes drive the paper's gyration results
// (Fig. 8 / Fig. 12): fixed devices that only wobble through cell
// reselection, human carriers moving inside a metro area, and long-haul
// devices (cars, trackers) that cross regions and occasionally countries.

#include <initializer_list>
#include <string_view>
#include <vector>

#include "cellnet/country.hpp"
#include "devices/device.hpp"
#include "stats/rng.hpp"

namespace wtr::sim {

/// Countries a long-haul device may hop to (a travel corridor); usually the
/// deployment country plus its neighbours. An empty corridor disables
/// cross-country trips regardless of the profile.
using TravelCorridor = std::vector<cellnet::CountryId>;

/// Corridor over ISO codes, in order. Throws std::invalid_argument naming
/// the first unknown code.
[[nodiscard]] TravelCorridor make_corridor(std::initializer_list<std::string_view> isos);

/// Advance a device's position by dt seconds. Mutates current position and
/// (for long-haul devices that cross a border) current_country.
void advance_position(devices::Device& device, double dt_s,
                      const TravelCorridor& corridor, stats::Rng& rng);

}  // namespace wtr::sim
