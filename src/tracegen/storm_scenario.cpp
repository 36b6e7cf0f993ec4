#include "tracegen/storm_scenario.hpp"

#include "stats/distributions.hpp"

namespace wtr::tracegen {

namespace {

topology::WorldConfig world_config_for(const StormScenarioConfig& config) {
  topology::WorldConfig wc;
  wc.seed = config.seed;
  wc.build_coverage = config.build_coverage;
  return wc;
}

sim::Engine::Config engine_config_for(const StormScenarioConfig& config) {
  sim::Engine::Config ec;
  ec.seed = stats::mix64(config.seed, 0x53544f524d);  // "STORM"
  ec.horizon_days = config.days;
  ec.outcomes.transient_failure_rate = 0.001;
  ec.congestion = config.congestion;
  return ec;
}

}  // namespace

StormScenario::StormScenario(const StormScenarioConfig& config)
    : ScenarioBase(world_config_for(config), cellnet::TacPools::Config{config.seed ^ 0x5354},
                   engine_config_for(config), config,
                   stats::mix64(config.seed, 0x68657264)),
      config_(config) {
  build_meter_herd();
  build_fota_trackers();
}

topology::OperatorId StormScenario::observer_radio() const {
  return world_->operators().radio_network_of(world_->well_known().uk_mno);
}

void StormScenario::build_meter_herd() {
  const auto& wk = world_->well_known();

  devices::FleetSpec spec;
  spec.count = config_.meters;
  spec.home_operator = wk.uk_mno;
  spec.profile = devices::m2m_profile(devices::Vertical::kSmartMeter);
  spec.profile.p_full_period = 1.0;  // the whole herd is live for the storm
  // Reattach-per-report firmware: every check-in beat is a fresh attach, so
  // the herd's load lands squarely on the attach-family procedures the
  // congestion model meters.
  spec.profile.p_detach_after_session = 1.0;
  spec.deployment_iso = "GB";
  spec.apn_policy = devices::ApnPolicy::kVerticalCompany;
  spec.horizon_days = config_.days;
  spec.cap_bands = cellnet::RatMask{0b011};  // 2G+3G meter hardware
  spec.fault_domain = kFaultDomainStormMeters;

  sim::AgentOptions options;
  options.backoff = config_.backoff;
  options.honor_congestion_control = config_.honor_congestion_control;
  options.eab_member = config_.eab_meters;
  options.checkin.enabled = true;
  options.checkin.period_s = config_.checkin_period_s;
  options.checkin.offset_s = 0.0;
  options.checkin.jitter_s = config_.checkin_jitter_s;
  add_fleet(spec, options);
}

void StormScenario::build_fota_trackers() {
  const auto& wk = world_->well_known();

  devices::FleetSpec spec;
  spec.count = config_.trackers;
  spec.home_operator = wk.uk_mno;
  spec.profile = devices::m2m_profile(devices::Vertical::kLogisticsTracker);
  spec.profile.p_full_period = 1.0;
  // Trackers also drop the bearer between reports, so each FOTA retry costs
  // a re-attach — failed waves become attach storms, not just data volume.
  spec.profile.p_detach_after_session = 1.0;
  spec.deployment_iso = "GB";
  spec.apn_policy = devices::ApnPolicy::kVerticalCompany;
  spec.horizon_days = config_.days;
  spec.fault_domain = kFaultDomainStormTrackers;

  sim::AgentOptions options;
  options.backoff = config_.backoff;
  options.honor_congestion_control = config_.honor_congestion_control;
  // Trackers are latency-sensitive (not delay-tolerant): no EAB membership.
  options.fota.enabled = true;
  options.fota.start_s = config_.fota_start_s;
  options.fota.waves = 4;
  options.fota.wave_interval_s = 1800;
  options.fota.failure_p = config_.fota_failure_p;
  options.fota.retry_s = 600;
  options.fota.retry_jitter_s = 120.0;
  options.fota.max_attempts = 6;
  add_fleet(spec, options);
}

}  // namespace wtr::tracegen
