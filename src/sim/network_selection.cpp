#include "sim/network_selection.hpp"

#include <algorithm>

namespace wtr::sim {

namespace {
std::optional<cellnet::Rat> best_of(cellnet::RatMask mask) {
  if (mask.has(cellnet::Rat::kFourG)) return cellnet::Rat::kFourG;
  if (mask.has(cellnet::Rat::kThreeG)) return cellnet::Rat::kThreeG;
  if (mask.has(cellnet::Rat::kTwoG)) return cellnet::Rat::kTwoG;
  // An LPWA-only device camps on NB-IoT; conventional hardware never
  // prefers it over a mobile-broadband technology.
  if (mask.has(cellnet::Rat::kNbIot)) return cellnet::Rat::kNbIot;
  return std::nullopt;
}
}  // namespace

std::optional<cellnet::Rat> NetworkSelector::radio_rat(const devices::Device& device,
                                                       topology::OperatorId visited) const {
  return best_of(
      device.capability.intersect(world_->operators().get(visited).deployed_rats));
}

std::optional<cellnet::Rat> NetworkSelector::radio_fallback_rat(
    const devices::Device& device, topology::OperatorId visited,
    cellnet::Rat failed) const {
  const auto mask =
      device.capability.intersect(world_->operators().get(visited).deployed_rats);
  if (failed == cellnet::Rat::kFourG && mask.has(cellnet::Rat::kThreeG)) {
    return cellnet::Rat::kThreeG;
  }
  if ((failed == cellnet::Rat::kFourG || failed == cellnet::Rat::kThreeG) &&
      mask.has(cellnet::Rat::kTwoG)) {
    return cellnet::Rat::kTwoG;
  }
  return std::nullopt;
}

ScanResult NetworkSelector::scan(const devices::Device& device,
                                 std::optional<topology::OperatorId> exclude,
                                 stats::Rng& rng) const {
  const auto& operators = world_->operators();
  const auto& home_op = operators.get(device.home_operator);
  ScanResult out;

  auto push = [&](topology::OperatorId visited, bool is_home) {
    // A handful of entries at most: a linear look-up, no per-operator table.
    const auto listed = std::find_if(out.begin(), out.end(), [&](const NetworkChoice& c) {
      return c.visited == visited;
    });
    if (listed != out.end()) return;
    if (exclude && *exclude == visited) return;
    const auto rat = radio_rat(device, visited);
    if (!rat) return;  // no radio overlap at all: the device cannot even try
    out.push_back(NetworkChoice{visited, *rat, is_home});
  };

  // Home radio network first when in the home country.
  if (device.current_country == home_op.country) {
    push(operators.radio_network_of(device.home_operator), true);
  }

  // Steering-preferred partners: weighted sampling without replacement so
  // the preferred network usually (not always) leads.
  auto candidates = world_->candidates(device.home_operator, device.current_country);
  util::InlineVector<double, topology::kMaxMnosPerCountry> weights;
  for (const auto& candidate : candidates) weights.push_back(candidate.weight);
  while (!candidates.empty()) {
    const std::size_t i = rng.weighted_index(weights);
    push(candidates[i].visited, false);
    candidates.erase(i);
    weights.erase(i);
  }

  // Remaining local MNOs (no commercial path — attempts will be rejected).
  util::InlineVector<topology::OperatorId, topology::kMaxMnosPerCountry> rest;
  for (topology::OperatorId visited : operators.mnos_in_country(device.current_country)) {
    rest.push_back(visited);
  }
  rng.shuffle(rest);
  for (topology::OperatorId visited : rest) push(visited, false);

  return out;
}

}  // namespace wtr::sim
