#pragma once

// Steering of roaming: when a SIM finds itself in a foreign country, the
// home operator ranks which visited networks it should prefer (commercial
// preferences, not radio conditions). §3.3's inter-VMNO switch analysis is
// driven by how sticky this choice is per device.

#include <cstdint>
#include <optional>
#include <unordered_map>
#include <vector>

#include "cellnet/country.hpp"
#include "cellnet/rat.hpp"
#include "stats/rng.hpp"
#include "topology/operator_registry.hpp"
#include "topology/roaming_agreements.hpp"
#include "topology/roaming_hub.hpp"

namespace wtr::topology {

struct VisitedCandidate {
  OperatorId visited = kInvalidOperator;
  double weight = 1.0;             // steering preference weight
  EffectiveRoaming roaming{};      // resolved commercial path
};

class SteeringPolicy {
 public:
  /// Install explicit preference weights for (home operator, country).
  /// Candidates not mentioned keep weight 1.0.
  void set_preference(OperatorId home, cellnet::CountryId country,
                      std::vector<std::pair<OperatorId, double>> weights);

  /// Visited-network candidates for a home SIM in a country: every MNO in
  /// the country reachable through some commercial path (and supporting
  /// `rat` under the effective terms when `rat` is given), weighted by
  /// steering preference. Sorted by descending weight (ties by id).
  [[nodiscard]] std::vector<VisitedCandidate> candidates(
      const OperatorRegistry& operators, const RoamingAgreementGraph& bilateral,
      const HubRegistry& hubs, OperatorId home, cellnet::CountryId country,
      std::optional<cellnet::Rat> rat = std::nullopt) const;

  /// Weighted random pick among candidates(); nullopt when none exist.
  [[nodiscard]] std::optional<VisitedCandidate> pick(
      const OperatorRegistry& operators, const RoamingAgreementGraph& bilateral,
      const HubRegistry& hubs, OperatorId home, cellnet::CountryId country,
      std::optional<cellnet::Rat> rat, stats::Rng& rng) const;

 private:
  using Weights = std::unordered_map<OperatorId, double>;

  static constexpr std::uint64_t override_key(OperatorId home,
                                              cellnet::CountryId country) noexcept {
    return (std::uint64_t{home} << 16) | country;
  }

  // (home, country) → per-visited weight overrides
  std::unordered_map<std::uint64_t, Weights> overrides_;
};

}  // namespace wtr::topology
