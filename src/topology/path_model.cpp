#include "topology/path_model.hpp"

#include <limits>

#include "cellnet/country.hpp"

namespace wtr::topology {

PathModel::PathModel(const World& world, PathModelConfig config)
    : world_(&world), config_(config) {}

cellnet::GeoPoint PathModel::anchor_of(OperatorId op) const {
  const auto& country = cellnet::country_at(world_->operators().get(op).country);
  return cellnet::GeoPoint{country.lat, country.lon};
}

std::string PathModel::iso_of(OperatorId op) const {
  return std::string(cellnet::country_at(world_->operators().get(op).country).iso);
}

double PathModel::operator_distance_km(OperatorId a, OperatorId b) const {
  return cellnet::haversine_m(anchor_of(a), anchor_of(b)) / 1000.0;
}

double PathModel::rtt_for_km(double one_way_km) const {
  // Round trip: propagation both ways plus the fixed processing terms.
  return 2.0 * one_way_km / 1000.0 * config_.ms_per_1000km +
         config_.core_processing_ms + config_.internet_egress_ms;
}

DataPath PathModel::data_path(OperatorId home, OperatorId visited,
                              BreakoutType breakout) const {
  DataPath path;
  path.breakout = breakout;
  switch (breakout) {
    case BreakoutType::kHomeRouted: {
      path.path_km = operator_distance_km(visited, home);
      path.egress_iso = iso_of(home);
      break;
    }
    case BreakoutType::kLocalBreakout: {
      path.path_km = 0.0;
      path.egress_iso = iso_of(visited);
      break;
    }
    case BreakoutType::kIpxHubBreakout: {
      // Egress at the nearest PoP of a hub the home operator belongs to;
      // PoPs are modeled at member-country centroids.
      const auto visited_anchor = anchor_of(visited);
      double best_km = std::numeric_limits<double>::infinity();
      OperatorId best = kInvalidOperator;
      for (const HubId hub : world_->hubs().hubs_of(home)) {
        for (const OperatorId member : world_->hubs().get(hub).members) {
          const double km =
              cellnet::haversine_m(visited_anchor, anchor_of(member)) / 1000.0;
          if (km < best_km) {
            best_km = km;
            best = member;
          }
        }
      }
      if (best == kInvalidOperator) {
        // Hubless home operator: the only possible path is home-routed.
        return data_path(home, visited, BreakoutType::kHomeRouted);
      }
      path.path_km = best_km;
      path.egress_iso = iso_of(best);
      break;
    }
  }
  path.rtt_ms = rtt_for_km(path.path_km);
  return path;
}

std::optional<DataPath> PathModel::effective_data_path(OperatorId home,
                                                       OperatorId visited) const {
  const auto& operators = world_->operators();
  if (operators.radio_network_of(home) == operators.radio_network_of(visited)) {
    // Native attachment: always local egress.
    return data_path(home, visited, BreakoutType::kLocalBreakout);
  }
  const auto roaming = world_->resolve_roaming(home, visited);
  if (roaming.path == RoamingPath::kNone) return std::nullopt;
  return data_path(home, visited, roaming.terms.breakout);
}

}  // namespace wtr::topology
