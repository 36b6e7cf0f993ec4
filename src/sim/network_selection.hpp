#pragma once

// Network and RAT selection for a device at its current position. Native
// devices camp on their home radio network; roaming devices follow the home
// operator's steering weights in the world's route table. The RAT is the
// best technology the hardware and the visited network's deployment share,
// with graceful fallback down to 2G — which is how the simulator reproduces
// M2M's 2G dependence (Fig. 9). A roaming agreement's RAT scope is not
// checked here: the visited network enforces it when it answers the attempt.

#include <optional>

#include "devices/device.hpp"
#include "stats/rng.hpp"
#include "topology/world.hpp"
#include "util/inline_vector.hpp"

namespace wtr::sim {

struct NetworkChoice {
  topology::OperatorId visited = topology::kInvalidOperator;
  cellnet::Rat rat = cellnet::Rat::kTwoG;
  bool is_home_network = false;  // camping on the home (or host) network
};

/// A scan's attempt order. Every entry is an MNO of the device's current
/// country, so the per-country cap bounds it and a scan never allocates.
using ScanResult = util::InlineVector<NetworkChoice, topology::kMaxMnosPerCountry>;

class NetworkSelector {
 public:
  explicit NetworkSelector(const topology::World& world) : world_(&world) {}

  /// Attempt-ordered candidates the device would actually try: the home
  /// radio network first when in the home country, then steering-preferred
  /// roaming partners, then the remaining local MNOs the SIM has no
  /// arrangement with — a device cannot know that in advance; the visited
  /// network answers RoamingNotAllowed, which is how those records enter
  /// the traces (§3.3). `exclude` removes a network from consideration
  /// (used to force a reselection away from a failing one). RATs here are
  /// radio-feasible (hardware ∩ deployment), NOT agreement-filtered.
  [[nodiscard]] ScanResult scan(const devices::Device& device,
                                std::optional<topology::OperatorId> exclude,
                                stats::Rng& rng) const;

  /// Radio-feasible best RAT (hardware ∩ deployment, no agreement filter).
  [[nodiscard]] std::optional<cellnet::Rat> radio_rat(const devices::Device& device,
                                                      topology::OperatorId visited) const;

  /// Radio-feasible fallback after `failed` (hardware ∩ deployment only).
  [[nodiscard]] std::optional<cellnet::Rat> radio_fallback_rat(const devices::Device& device,
                                                               topology::OperatorId visited,
                                                               cellnet::Rat failed) const;

 private:
  const topology::World* world_;
};

}  // namespace wtr::sim
