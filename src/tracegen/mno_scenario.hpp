#pragma once

// The visited-MNO scenario (§4–6): the full device population seen by the
// UK operator over 22 days — native and MVNO phones, inbound-roaming
// tourists, outbound roamers, and the M2M fleets (dominated by the
// inbound-roaming smart meters from the Dutch global-IoT-SIM provisioner).
// Default scale is 24k devices (the paper's 39.6M scaled down; all reported
// statistics are shares or distribution shapes).

#include "tracegen/scenario.hpp"

namespace wtr::tracegen {

/// Fault-domain tags stamped on MnoScenario fleets so a FaultSchedule can
/// target them (misprovisioning ramps are per-fleet phenomena).
inline constexpr std::uint32_t kFaultDomainInboundMeters = 1;
inline constexpr std::uint32_t kFaultDomainNativeM2M = 2;

struct MnoScenarioConfig : RunOptions {
  std::uint64_t seed = 2019;
  std::size_t total_devices = 24'000;
  std::int32_t days = 22;
  bool build_coverage = true;  // needed for the mobility figures
  /// What-if (§6.1/§8 discussion): the UK retires its 2G networks. The same
  /// population is simulated against 3G/4G-only coverage; 2G-only hardware
  /// is stranded. Used by the X2 extension bench.
  bool sunset_2g_in_uk = false;
  /// §8 extension: fraction of the inbound (Dutch) smart-meter fleet that is
  /// provisioned on NB-IoT instead of 2G modules. Values > 0 also light up
  /// NB-IoT deployment in GB/NL and NB-IoT roaming in the agreements (the
  /// GSMA roaming-trial world). Used by the X3 extension bench.
  double nbiot_meter_share = 0.0;
};

class MnoScenario final : public ScenarioBase {
 public:
  explicit MnoScenario(const MnoScenarioConfig& config = {});

  [[nodiscard]] const MnoScenarioConfig& config() const noexcept { return config_; }

  /// The observing MNO and its MVNO family (catalog-accumulator config).
  [[nodiscard]] cellnet::Plmn observer_plmn() const;
  [[nodiscard]] std::vector<cellnet::Plmn> mvno_plmns() const;
  [[nodiscard]] std::vector<cellnet::Plmn> family_plmns() const;

 private:
  /// Fleet-agnostic agent options carrying the configured retry model.
  [[nodiscard]] sim::AgentOptions base_options() const;

  void build_smartphone_fleets();
  void build_feature_phone_fleets();
  void build_native_m2m_fleets();
  void build_inbound_m2m_fleets();
  void build_maybe_fleets();

  /// Home operator handle for a foreign country's first MNO.
  [[nodiscard]] topology::OperatorId foreign_mno(const std::string& iso) const;

  [[nodiscard]] std::size_t scaled(double fraction) const {
    return static_cast<std::size_t>(fraction *
                                    static_cast<double>(config_.total_devices));
  }

  MnoScenarioConfig config_;
};

}  // namespace wtr::tracegen
