#pragma once

// The world model: every operator, agreement, hub and coverage grid the
// scenarios run on, plus named handles to the actors the paper's datasets
// revolve around — the UK MNO under study (§4), the four HMNOs behind the
// M2M platform (§3: ES, DE, MX, AR), and the Dutch operator that provisions
// the roaming smart-meter SIMs (§4.4).

#include <cstdint>
#include <string>
#include <vector>

#include "topology/coverage.hpp"
#include "topology/operator_registry.hpp"
#include "topology/roaming_agreements.hpp"
#include "topology/roaming_hub.hpp"
#include "topology/steering.hpp"

namespace wtr::topology {

struct WellKnownOperators {
  OperatorId uk_mno = kInvalidOperator;           // the visited MNO under study
  std::vector<OperatorId> uk_mvnos;               // MVNOs riding on it
  OperatorId es_hmno = kInvalidOperator;          // M2M platform HMNOs
  OperatorId de_hmno = kInvalidOperator;
  OperatorId mx_hmno = kInvalidOperator;
  OperatorId ar_hmno = kInvalidOperator;
  OperatorId nl_iot_provisioner = kInvalidOperator;  // smart-meter SIM issuer
  HubId m2m_hub = kInvalidHub;                    // the platform's carrier/IPX
  HubId partner_hub = kInvalidHub;                // peered carrier extending reach
};

struct WorldConfig {
  std::uint64_t seed = 42;
  std::uint32_t mnos_per_country = 3;
  bool build_coverage = true;                     // grids are the memory cost
  CoverageMap::GridPlan grid_plan{};
  // Countries whose MNOs have retired 2G (the paper names JP/KR/SG/AU).
  std::vector<std::string> two_g_sunset_isos{"JP", "KR", "SG", "AU"};
  // §8 extension: countries whose first MNO deploys an NB-IoT overlay, and
  // whether the carriers' agreements cover NB-IoT roaming (the GSMA's 2018
  // "first international NB-IoT roaming trial").
  std::vector<std::string> nbiot_isos{};
  bool nbiot_roaming_enabled = false;
  // Countries directly interconnected to the M2M hub's PoPs (the carrier in
  // §3 peers directly with MNOs in 19 countries, mostly Europe + LatAm).
  std::vector<std::string> m2m_hub_direct_isos{
      "ES", "DE", "MX", "AR", "GB", "NL", "PT", "FR", "IT", "BE",
      "IE", "AT", "PL", "RO", "BR", "CL", "CO", "PE", "UY"};
};

class World {
 public:
  static World build(const WorldConfig& config);

  [[nodiscard]] const WorldConfig& config() const noexcept { return config_; }
  [[nodiscard]] const OperatorRegistry& operators() const noexcept { return operators_; }
  [[nodiscard]] const RoamingAgreementGraph& bilateral() const noexcept { return bilateral_; }
  [[nodiscard]] const HubRegistry& hubs() const noexcept { return hubs_; }
  [[nodiscard]] const CoverageMap& coverage() const noexcept { return coverage_; }
  [[nodiscard]] const SteeringPolicy& steering() const noexcept { return steering_; }
  [[nodiscard]] const WellKnownOperators& well_known() const noexcept { return well_known_; }

  /// Mutable steering access (scenarios install platform preferences).
  [[nodiscard]] SteeringPolicy& mutable_steering() noexcept { return steering_; }

  /// Effective roaming relation, bilateral-first then hubs.
  [[nodiscard]] EffectiveRoaming resolve_roaming(OperatorId home,
                                                 OperatorId visited) const {
    return hubs_.resolve(bilateral_, home, visited);
  }

 private:
  WorldConfig config_{};
  OperatorRegistry operators_;
  RoamingAgreementGraph bilateral_;
  HubRegistry hubs_;
  CoverageMap coverage_;
  SteeringPolicy steering_;
  WellKnownOperators well_known_;
};

}  // namespace wtr::topology
