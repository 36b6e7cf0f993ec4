#pragma once

// The world model: every operator, agreement, hub and coverage grid the
// scenarios run on, plus named handles to the actors the paper's datasets
// revolve around — the UK MNO under study (§4), the four HMNOs behind the
// M2M platform (§3: ES, DE, MX, AR), and the Dutch operator that provisions
// the roaming smart-meter SIMs (§4.4).
//
// Nothing adds an operator, agreement or hub once World::build returns, so
// the build ends by resolving every (home, visited) operator pair into a
// route table: the agent step reads a roaming path or a steering weight
// from it and never resolves one.

#include <cassert>
#include <cstdint>
#include <string>
#include <vector>

#include "topology/coverage.hpp"
#include "topology/operator_registry.hpp"
#include "topology/roaming_agreements.hpp"
#include "topology/roaming_hub.hpp"
#include "util/inline_vector.hpp"

namespace wtr::topology {

/// A visited network a roaming SIM may be steered to, with the home
/// operator's steering weight for it.
struct VisitedCandidate {
  OperatorId visited = kInvalidOperator;
  double weight = 1.0;
};

/// One country's candidates: every entry is an MNO of that country.
using CandidateList = util::InlineVector<VisitedCandidate, kMaxMnosPerCountry>;

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
  bool build_coverage = true;                     // grids are the memory cost
  // Countries whose MNOs have retired 2G (the paper names JP/KR/SG/AU).
  std::vector<std::string> two_g_sunset_isos{"JP", "KR", "SG", "AU"};
  // §8 extension: countries whose first MNO deploys an NB-IoT overlay, and
  // whether the carriers' agreements cover NB-IoT roaming (the GSMA's 2018
  // "first international NB-IoT roaming trial").
  std::vector<std::string> nbiot_isos{};
  bool nbiot_roaming_enabled = false;
};

class World {
 public:
  static World build(const WorldConfig& config);

  [[nodiscard]] const OperatorRegistry& operators() const noexcept { return operators_; }
  [[nodiscard]] const RoamingAgreementGraph& bilateral() const noexcept { return bilateral_; }
  [[nodiscard]] const HubRegistry& hubs() const noexcept { return hubs_; }
  [[nodiscard]] const CoverageMap& coverage() const noexcept { return coverage_; }
  [[nodiscard]] const WellKnownOperators& well_known() const noexcept { return well_known_; }

  /// Effective roaming relation home → visited, as HubRegistry::resolve
  /// gives it (bilateral first, then hubs): a route-table read.
  [[nodiscard]] EffectiveRoaming resolve_roaming(OperatorId home,
                                                 OperatorId visited) const noexcept {
    return routes_[route_index(home, visited)].roaming;
  }

  /// Steering of roaming (§3.3): the home operator's commercial preference
  /// for a visited network over the other networks of its country. Every
  /// pair starts at 1.0; scenarios install their preferences before the run.
  void set_steering_weight(OperatorId home, OperatorId visited, double weight) noexcept {
    routes_[route_index(home, visited)].weight = weight;
  }

  /// Visited-network candidates for a home SIM in a country: every MNO
  /// there, other than home itself, that home reaches through some
  /// commercial path, by descending steering weight (ties by id).
  [[nodiscard]] CandidateList candidates(OperatorId home, cellnet::CountryId country) const;

 private:
  struct Route {
    EffectiveRoaming roaming{};
    double weight = 1.0;
  };

  [[nodiscard]] std::size_t route_index(OperatorId home, OperatorId visited) const noexcept {
    assert(home < operators_.size() && visited < operators_.size());
    return std::size_t{home} * operators_.size() + visited;
  }

  OperatorRegistry operators_;
  RoamingAgreementGraph bilateral_;
  HubRegistry hubs_;
  CoverageMap coverage_;
  WellKnownOperators well_known_;
  // operators² entries, row-major by home operator; filled by build().
  std::vector<Route> routes_;
};

}  // namespace wtr::topology
