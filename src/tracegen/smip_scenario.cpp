#include "tracegen/smip_scenario.hpp"

namespace wtr::tracegen {

namespace {

topology::WorldConfig world_config_for(const SmipScenarioConfig& config) {
  topology::WorldConfig wc;
  wc.seed = config.seed;
  wc.build_coverage = config.build_coverage;
  return wc;
}

sim::Engine::Config engine_config_for(const SmipScenarioConfig& config) {
  sim::Engine::Config ec;
  ec.seed = stats::mix64(config.seed, 0x534d4950);  // "SMIP"
  ec.horizon_days = config.days;
  // Calibrated so ~10% of native meters see ≥1 failed event over the
  // window while the chattier roaming meters reach ~35% (§7.1).
  ec.outcomes.transient_failure_rate = 0.0004;
  return ec;
}

}  // namespace

SmipScenario::SmipScenario(const SmipScenarioConfig& config)
    : ScenarioBase(world_config_for(config), cellnet::TacPools::Config{config.seed ^ 0x51},
                   engine_config_for(config), config,
                   stats::mix64(config.seed, 0x5150)),
      config_(config) {
  const auto& wk = world_->well_known();
  // Steer the Dutch provisioner's UK roamers to the observed MNO (see
  // MnoScenario for the rationale).
  world_->set_steering_weight(wk.nl_iot_provisioner, wk.uk_mno, 15.0);
  sim::AgentOptions options;
  options.retry_rate_boost = 10.0;
  options.backoff = config.backoff;

  const auto native_total =
      static_cast<std::size_t>(config.native_share *
                               static_cast<double>(config.total_devices));
  const std::size_t roaming_total = config.total_devices - native_total;

  // --- SMIP native: dedicated IMSI range and a controlled GGSN pool (we
  // model the range; the pool is a provisioning detail). Two hardware
  // cohorts: 2/3 of the fleet on 3G-only modules, 1/3 on 2G+3G.
  auto native_profile = devices::m2m_profile(devices::Vertical::kSmartMeter);
  native_profile.p_full_period = 0.78;  // §7.1: 73% active the whole period
  native_profile.active_span_days_mean = 12.0;
  // SMIP meters report several times a day — enough that an active meter is
  // seen on (almost) every day of the window.
  native_profile.sessions_per_day_mu = 2.0;   // ≈ 7 reads/day
  native_profile.sessions_per_day_sigma = 0.3;
  native_profile.p_detach_after_session = 0.2;
  native_profile.area_updates_per_session = 0.35;

  std::uint64_t imsi_base = 500'000'000ULL;
  auto add_native = [&](std::size_t count, cellnet::RatMask bands) {
    devices::FleetSpec spec;
    spec.count = count;
    spec.home_operator = wk.uk_mno;
    spec.profile = native_profile;
    spec.deployment_iso = "GB";
    spec.apn_policy = devices::ApnPolicy::kVerticalCompany;
    spec.horizon_days = config_.days;
    spec.imsi_range = cellnet::ImsiRange{observer_plmn(), imsi_base, imsi_base + count};
    imsi_base += count;
    spec.cap_bands = bands;
    for (const auto hash : add_fleet(spec, options)) native_.insert(hash);
  };
  add_native(native_total * 2 / 3, cellnet::RatMask{0b010});  // 3G only
  add_native(native_total - native_total * 2 / 3, cellnet::RatMask{0b011});  // 2G+3G

  // --- SMIP roaming: Dutch global IoT SIMs on 2G-only Gemalto/Telit
  // modules, behind the five UK energy companies' APNs. Much chattier
  // (reattach-per-report firmware) and shorter-lived in the trace.
  {
    devices::FleetSpec spec;
    spec.count = roaming_total;
    spec.home_operator = wk.nl_iot_provisioner;
    auto profile = devices::m2m_profile(devices::Vertical::kSmartMeter);
    profile.sessions_per_day_mu = 2.5;        // ≈ 12 sessions/day
    profile.sessions_per_day_sigma = 0.5;
    profile.p_detach_after_session = 0.9;     // reattach-per-report firmware
    profile.area_updates_per_session = 4.0;   // chatty RAU behaviour
    profile.p_full_period = 0.18;
    profile.active_span_days_mean = 4.5;      // §7.1: 50% active ≤ 5 days
    spec.profile = profile;
    spec.deployment_iso = "GB";
    spec.apn_policy = devices::ApnPolicy::kVerticalCompany;
    spec.horizon_days = config_.days;
    spec.cap_bands = cellnet::RatMask{0b001};  // 2G-only hardware
    spec.restrict_vendors = {"Gemalto", "Telit"};
    spec.subscription_ok_rate = 0.91;
    for (const auto hash : add_fleet(spec, options)) roaming_.insert(hash);
  }
}

cellnet::Plmn SmipScenario::observer_plmn() const {
  return world_->operators().get(world_->well_known().uk_mno).plmn;
}

}  // namespace wtr::tracegen
