#include "topology/roaming_agreements.hpp"

namespace wtr::topology {

std::string_view breakout_name(BreakoutType type) noexcept {
  switch (type) {
    case BreakoutType::kHomeRouted: return "home-routed";
    case BreakoutType::kLocalBreakout: return "local-breakout";
    case BreakoutType::kIpxHubBreakout: return "ipx-hub-breakout";
  }
  return "?";
}

void RoamingAgreementGraph::add(OperatorId home, OperatorId visited,
                                AgreementTerms terms) {
  terms_.insert_or_assign(key(home, visited), terms);
}

void RoamingAgreementGraph::add_bilateral(OperatorId a, OperatorId b,
                                          AgreementTerms terms) {
  add(a, b, terms);
  add(b, a, terms);
}

std::optional<AgreementTerms> RoamingAgreementGraph::find(OperatorId home,
                                                          OperatorId visited) const {
  const auto it = terms_.find(key(home, visited));
  if (it == terms_.end()) return std::nullopt;
  return it->second;
}

}  // namespace wtr::topology
