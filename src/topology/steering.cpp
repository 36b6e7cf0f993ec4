#include "topology/steering.hpp"

#include <algorithm>

namespace wtr::topology {

void SteeringPolicy::set_preference(OperatorId home, cellnet::CountryId country,
                                    std::vector<std::pair<OperatorId, double>> weights) {
  auto& map = overrides_[override_key(home, country)];
  for (const auto& [visited, weight] : weights) map[visited] = weight;
}

std::vector<VisitedCandidate> SteeringPolicy::candidates(
    const OperatorRegistry& operators, const RoamingAgreementGraph& bilateral,
    const HubRegistry& hubs, OperatorId home, cellnet::CountryId country,
    std::optional<cellnet::Rat> rat) const {
  const auto overrides = overrides_.find(override_key(home, country));
  const Weights* weights = overrides == overrides_.end() ? nullptr : &overrides->second;
  std::vector<VisitedCandidate> out;
  for (OperatorId visited : operators.mnos_in_country(country)) {
    if (visited == home) continue;
    const EffectiveRoaming roaming = hubs.resolve(bilateral, home, visited);
    if (roaming.path == RoamingPath::kNone) continue;
    if (rat && !roaming.terms.allowed_rats.has(*rat)) continue;
    VisitedCandidate candidate;
    candidate.visited = visited;
    if (weights) {
      const auto weight = weights->find(visited);
      if (weight != weights->end()) candidate.weight = weight->second;
    }
    candidate.roaming = roaming;
    out.push_back(candidate);
  }
  std::sort(out.begin(), out.end(), [](const VisitedCandidate& a, const VisitedCandidate& b) {
    if (a.weight != b.weight) return a.weight > b.weight;
    return a.visited < b.visited;
  });
  return out;
}

std::optional<VisitedCandidate> SteeringPolicy::pick(
    const OperatorRegistry& operators, const RoamingAgreementGraph& bilateral,
    const HubRegistry& hubs, OperatorId home, cellnet::CountryId country,
    std::optional<cellnet::Rat> rat, stats::Rng& rng) const {
  const auto options = candidates(operators, bilateral, hubs, home, country, rat);
  if (options.empty()) return std::nullopt;
  std::vector<double> weights;
  weights.reserve(options.size());
  for (const auto& option : options) weights.push_back(option.weight);
  return options[rng.weighted_index(weights)];
}

}  // namespace wtr::topology
