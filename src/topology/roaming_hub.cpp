#include "topology/roaming_hub.hpp"

#include <algorithm>
#include <cassert>

namespace wtr::topology {

std::string_view roaming_path_name(RoamingPath path) noexcept {
  switch (path) {
    case RoamingPath::kNone: return "none";
    case RoamingPath::kDirect: return "direct";
    case RoamingPath::kViaHub: return "via-hub";
    case RoamingPath::kViaHubPeering: return "via-hub-peering";
  }
  return "?";
}

AgreementTerms merge_terms(const AgreementTerms& a, const AgreementTerms& b) noexcept {
  AgreementTerms out;
  out.allowed_rats = a.allowed_rats.intersect(b.allowed_rats);
  out.breakout = a.breakout == b.breakout ? a.breakout : BreakoutType::kIpxHubBreakout;
  return out;
}

HubId HubRegistry::add_hub(std::string name, AgreementTerms default_terms) {
  RoamingHub hub;
  hub.id = static_cast<HubId>(hubs_.size());
  hub.name = std::move(name);
  hubs_.push_back(std::move(hub));
  default_terms_.push_back(default_terms);
  return hubs_.back().id;
}

void HubRegistry::add_member(HubId hub, OperatorId op) {
  assert(static_cast<std::size_t>(hub) < hubs_.size());
  auto& members = hubs_[hub].members;
  if (std::find(members.begin(), members.end(), op) != members.end()) return;
  members.push_back(op);
  memberships_[op].push_back(hub);
}

void HubRegistry::peer(HubId a, HubId b) {
  assert(static_cast<std::size_t>(a) < hubs_.size());
  assert(static_cast<std::size_t>(b) < hubs_.size());
  if (a == b) return;
  peers_[a].insert(b);
  peers_[b].insert(a);
}

const RoamingHub& HubRegistry::get(HubId id) const {
  assert(static_cast<std::size_t>(id) < hubs_.size());
  return hubs_[id];
}

const std::vector<HubId>& HubRegistry::hubs_of(OperatorId op) const {
  static const std::vector<HubId> kNoHubs;
  const auto it = memberships_.find(op);
  return it == memberships_.end() ? kNoHubs : it->second;
}

AgreementTerms HubRegistry::terms_of(HubId hub) const {
  assert(static_cast<std::size_t>(hub) < default_terms_.size());
  return default_terms_[hub];
}

EffectiveRoaming HubRegistry::resolve(const RoamingAgreementGraph& bilateral,
                                      OperatorId home, OperatorId visited) const {
  if (const auto direct = bilateral.find(home, visited)) {
    return EffectiveRoaming{RoamingPath::kDirect, *direct};
  }
  const auto& home_hubs = hubs_of(home);
  const auto& visited_hubs = hubs_of(visited);
  // Shared hub.
  for (HubId h : home_hubs) {
    if (std::find(visited_hubs.begin(), visited_hubs.end(), h) != visited_hubs.end()) {
      return EffectiveRoaming{RoamingPath::kViaHub, terms_of(h), h};
    }
  }
  // One hop of hub peering.
  for (HubId hh : home_hubs) {
    const auto peer_it = peers_.find(hh);
    if (peer_it == peers_.end()) continue;
    for (HubId vh : visited_hubs) {
      if (peer_it->second.contains(vh)) {
        return EffectiveRoaming{RoamingPath::kViaHubPeering,
                                merge_terms(terms_of(hh), terms_of(vh)), hh};
      }
    }
  }
  return EffectiveRoaming{};
}

}  // namespace wtr::topology
