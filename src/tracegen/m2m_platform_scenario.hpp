#pragma once

// The M2M platform scenario (§3): reproduces the 11-day, 4-HMNO global IoT
// SIM trace. Device counts are scaled (default 24k instead of the paper's
// 120k); every share-type statistic is scale-free.
//
// Composition targets (tracegen/calibration.hpp):
//   * ES 52.3% of devices — 18% deployed at home, 62% of roamers massed in
//     five primary countries (the 75%-of-signaling heavy set), the rest in
//     a ~70-country Zipf tail;
//   * MX 42.2% — 90% at home (LatAm roaming restrictions);
//   * AR 4.7% — almost all at home;
//   * DE ~0.8% — a small high-mobility connected-car fleet spanning many
//     VMNOs;
//   * ≈40% of ES devices fail all 4G procedures (no-LTE SIM provisioning or
//     dead subscriptions), the paper's pure-failure population.

#include "tracegen/scenario.hpp"

namespace wtr::tracegen {

struct M2MPlatformConfig : RunOptions {
  std::uint64_t seed = 2018;
  std::size_t total_devices = 24'000;
  std::int32_t days = 11;
  /// Platform probes capture no sector geometry; grids can be skipped for
  /// speed unless a consumer needs dwell records.
  bool build_coverage = false;
};

class M2MPlatformScenario final : public ScenarioBase {
 public:
  explicit M2MPlatformScenario(const M2MPlatformConfig& config = {});

  [[nodiscard]] const M2MPlatformConfig& config() const noexcept { return config_; }

  /// SIM PLMNs of the four HMNOs (for the platform-trace accumulator).
  [[nodiscard]] std::vector<cellnet::Plmn> hmno_plmns() const;

 private:
  void build_es_fleets();
  void build_mx_fleets();
  void build_ar_fleets();
  void build_de_fleets();

  [[nodiscard]] devices::FleetSpec base_spec(topology::OperatorId home,
                                             std::size_t count,
                                             const devices::BehaviorProfile& profile,
                                             const std::string& deployment_iso) const;

  M2MPlatformConfig config_;
};

}  // namespace wtr::tracegen
