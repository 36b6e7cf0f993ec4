#pragma once

// Data-path model for the three roaming configurations of Fig. 1:
//
//   home-routed (HR)      — user traffic tromboned to the home PGW, then to
//                           the Internet: the EU default, with "serious
//                           performance penalties" for far destinations
//                           (§3.2's Spain → Australia example);
//   local breakout (LBO)  — egress at the visited PGW;
//   IPX hub breakout      — egress inside the IPX network, at the hub PoP
//                           nearest to the visited country.
//
// The model is geometric: great-circle distances between country centroids
// (and hub PoPs) drive propagation delay; fixed terms cover EPC transit and
// Internet egress. It quantifies the A2 design discussion in DESIGN.md —
// the paper explicitly leaves QoS measurement out of scope, so this module
// is an extension, not a reproduction target.

#include <optional>
#include <string>
#include <vector>

#include "cellnet/geo.hpp"
#include "topology/world.hpp"

namespace wtr::topology {

struct PathModelConfig {
  /// One-way propagation delay per 1000 km of great-circle distance
  /// (light in fiber ≈ 5 µs/km plus routing detours).
  double ms_per_1000km = 10.0;
  double core_processing_ms = 8.0;   // RAN + EPC transit, per direction pair
  double internet_egress_ms = 5.0;   // PGW → nearby service
};

struct DataPath {
  BreakoutType breakout = BreakoutType::kHomeRouted;
  double rtt_ms = 0.0;     // device → Internet service → device
  double path_km = 0.0;    // one-way geographic path length
  std::string egress_iso;  // country hosting the egress PGW
};

class PathModel {
 public:
  explicit PathModel(const World& world, PathModelConfig config = {});

  /// The data path for a SIM of `home` attached to `visited`, under the
  /// given breakout configuration. For IHBO the egress is the hub PoP
  /// (member-country centroid) nearest to the visited country, picked from
  /// the hubs `home` belongs to; falls back to HR when `home` is hubless.
  [[nodiscard]] DataPath data_path(OperatorId home, OperatorId visited,
                                   BreakoutType breakout) const;

  /// The path under the *effective* roaming configuration between the two
  /// operators (bilateral terms or hub default). Native attachments are
  /// always local. nullopt when no commercial path exists.
  [[nodiscard]] std::optional<DataPath> effective_data_path(OperatorId home,
                                                            OperatorId visited) const;

  /// Great-circle km between two operators' country centroids.
  [[nodiscard]] double operator_distance_km(OperatorId a, OperatorId b) const;

 private:
  [[nodiscard]] cellnet::GeoPoint anchor_of(OperatorId op) const;
  [[nodiscard]] std::string iso_of(OperatorId op) const;
  [[nodiscard]] double rtt_for_km(double one_way_km) const;

  const World* world_;
  PathModelConfig config_;
};

}  // namespace wtr::topology
