#include "tracegen/m2m_platform_scenario.hpp"

#include <array>
#include <cmath>

#include "cellnet/country.hpp"
#include "tracegen/calibration.hpp"

namespace wtr::tracegen {

namespace {

topology::WorldConfig world_config_for(const M2MPlatformConfig& config) {
  topology::WorldConfig wc;
  wc.seed = config.seed;
  wc.build_coverage = config.build_coverage;
  return wc;
}

sim::Engine::Config engine_config_for(const M2MPlatformConfig& config) {
  sim::Engine::Config ec;
  ec.seed = stats::mix64(config.seed, 0x91a7f0u);
  ec.horizon_days = config.days;
  ec.outcomes.transient_failure_rate = 0.001;
  return ec;
}

/// IoT SIM hardware is 4G-capable with legacy fallback (the platform trace
/// is 4G-only by probe placement, not by hardware).
cellnet::RatMask all_bands() {
  return cellnet::RatMask{0b111};
}

}  // namespace

M2MPlatformScenario::M2MPlatformScenario(const M2MPlatformConfig& config)
    : ScenarioBase(world_config_for(config), cellnet::TacPools::Config{config.seed ^ 0x7ac5},
                   engine_config_for(config), config,
                   stats::mix64(config.seed, 0xf1ee7)),
      config_(config) {
  build_es_fleets();
  build_mx_fleets();
  build_ar_fleets();
  build_de_fleets();
}

std::vector<cellnet::Plmn> M2MPlatformScenario::hmno_plmns() const {
  const auto& wk = world_->well_known();
  const auto& ops = world_->operators();
  return {ops.get(wk.es_hmno).plmn, ops.get(wk.de_hmno).plmn, ops.get(wk.mx_hmno).plmn,
          ops.get(wk.ar_hmno).plmn};
}

devices::FleetSpec M2MPlatformScenario::base_spec(
    topology::OperatorId home, std::size_t count,
    const devices::BehaviorProfile& profile, const std::string& deployment_iso) const {
  devices::FleetSpec spec;
  spec.count = count;
  spec.home_operator = home;
  spec.profile = profile;
  spec.deployment_iso = deployment_iso;
  spec.apn_policy = devices::ApnPolicy::kM2MPlatform;
  spec.horizon_days = config_.days;
  spec.force_bands = all_bands();
  return spec;
}

void M2MPlatformScenario::build_es_fleets() {
  const auto es = world_->well_known().es_hmno;
  const auto total = static_cast<double>(config_.total_devices);
  const auto es_total = total * paper::kEsDeviceShare;
  const double native_count = es_total * paper::kEsNonRoamingDeviceShare;
  const double roaming_count = es_total - native_count;

  sim::AgentOptions options;
  options.retry_rate_boost = 30.0;  // registration storms feed the Fig. 3 tail
  options.backoff = config_.backoff;
  options.p_explore_after_failure = 0.06;

  // --- ES native: low-rate stationary verticals at home.
  {
    auto profile = devices::m2m_profile(devices::Vertical::kSmartMeter);
    profile.p_full_period = 0.85;  // long-lived, less mobile (§3.2)
    profile.p_detach_after_session = 0.05;  // stay attached: few HSS touches
    auto spec = base_spec(es, static_cast<std::size_t>(native_count * 0.6), profile, "ES");
    spec.lte_sim_disabled_rate = 0.36;
    spec.subscription_ok_rate = 0.99;
    add_fleet(spec, options);

    auto pos_profile = devices::m2m_profile(devices::Vertical::kPosTerminal);
    pos_profile.p_full_period = 0.85;
    pos_profile.p_detach_after_session = 0.05;
    auto pos_spec =
        base_spec(es, static_cast<std::size_t>(native_count * 0.4), pos_profile, "ES");
    pos_spec.lte_sim_disabled_rate = 0.36;
    pos_spec.subscription_ok_rate = 0.99;
    add_fleet(pos_spec, options);
  }

  // --- ES roaming heavy set: five primary countries, signaling-heavy
  // verticals (these generate ~75% of the ES signaling).
  const std::array<std::string, 5> primary{"GB", "FR", "IT", "PT", "DE"};
  const double heavy_count = roaming_count * paper::kEsHeavyDeviceShare;
  for (const auto& iso : primary) {
    const auto per_country = static_cast<std::size_t>(heavy_count / primary.size());
    struct Mix {
      devices::Vertical vertical;
      double share;
    };
    const std::array<Mix, 4> mix{{{devices::Vertical::kConnectedCar, 0.35},
                                  {devices::Vertical::kFleetTelematics, 0.25},
                                  {devices::Vertical::kLogisticsTracker, 0.20},
                                  {devices::Vertical::kSmartMeter, 0.20}}};
    for (const auto& [vertical, share] : mix) {
      auto profile = devices::m2m_profile(vertical);
      profile.p_full_period = 0.75;
      // Global IoT SIM firmware reattaches per report; every cycle touches
      // the HSS (auth + update location), which is what the probes see.
      profile.p_detach_after_session =
          vertical == devices::Vertical::kConnectedCar ? 0.5 : 0.7;
      auto spec = base_spec(es, static_cast<std::size_t>(per_country * share), profile, iso);
      spec.lte_sim_disabled_rate = 0.38;
      spec.subscription_ok_rate = 0.985;
      sim::AgentOptions mobile_options = options;
      if (vertical == devices::Vertical::kConnectedCar ||
          vertical == devices::Vertical::kLogisticsTracker) {
        mobile_options.corridor = sim::make_corridor({iso, "ES", "FR", "DE"});  // EU trips
      }
      add_fleet(spec, mobile_options);
    }
  }

  // --- ES roaming tail: Zipf allocation over every other country, so the
  // footprint reaches ~70+ countries like the paper's (§3.2).
  std::vector<std::string> tail_isos;
  for (const auto& country : cellnet::all_countries()) {
    if (country.iso == "ES") continue;
    if (std::find(primary.begin(), primary.end(), country.iso) != primary.end()) continue;
    tail_isos.emplace_back(country.iso);
  }
  const double tail_count = roaming_count - heavy_count;
  double zipf_norm = 0.0;
  for (std::size_t rank = 0; rank < tail_isos.size(); ++rank) {
    zipf_norm += 1.0 / static_cast<double>(rank + 1);
  }
  for (std::size_t rank = 0; rank < tail_isos.size(); ++rank) {
    const double weight = (1.0 / static_cast<double>(rank + 1)) / zipf_norm;
    const auto count =
        std::max<std::size_t>(2, static_cast<std::size_t>(tail_count * weight));
    auto profile = devices::m2m_profile(rank % 2 == 0
                                            ? devices::Vertical::kLogisticsTracker
                                            : devices::Vertical::kWearable);
    profile.p_full_period = 0.6;
    profile.p_detach_after_session = 0.7;
    auto spec = base_spec(es, count, profile, tail_isos[rank]);
    spec.lte_sim_disabled_rate = 0.38;
    spec.subscription_ok_rate = 0.985;
    add_fleet(spec, options);
  }
}

void M2MPlatformScenario::build_mx_fleets() {
  const auto mx = world_->well_known().mx_hmno;
  const auto total = static_cast<double>(config_.total_devices);
  const double mx_total = total * paper::kMxDeviceShare;
  const double home_count = mx_total * paper::kMxHomeDeviceShare;

  sim::AgentOptions options;
  options.retry_rate_boost = 20.0;
  options.backoff = config_.backoff;

  struct Mix {
    devices::Vertical vertical;
    double share;
  };
  const std::array<Mix, 4> home_mix{{{devices::Vertical::kSmartMeter, 0.40},
                                     {devices::Vertical::kPosTerminal, 0.25},
                                     {devices::Vertical::kVendingMachine, 0.20},
                                     {devices::Vertical::kFleetTelematics, 0.15}}};
  for (const auto& [vertical, share] : home_mix) {
    auto profile = devices::m2m_profile(vertical);
    profile.p_full_period = 0.8;
    profile.p_detach_after_session = 0.08;  // at home: long-lived attachments
    auto spec =
        base_spec(mx, static_cast<std::size_t>(home_count * share), profile, "MX");
    spec.subscription_ok_rate = 0.97;
    add_fleet(spec, options);
  }

  // Roamers: a 10% slice spread over the paper's 7-country footprint.
  const std::array<std::string, 6> visited{"GT", "CO", "CL", "US", "PA", "PE"};
  const double roaming_count = mx_total - home_count;
  for (const auto& iso : visited) {
    auto profile = devices::m2m_profile(devices::Vertical::kLogisticsTracker);
    profile.p_full_period = 0.7;
    auto spec = base_spec(
        mx, static_cast<std::size_t>(roaming_count / visited.size()), profile, iso);
    spec.subscription_ok_rate = 0.95;
    add_fleet(spec, options);
  }
}

void M2MPlatformScenario::build_ar_fleets() {
  const auto ar = world_->well_known().ar_hmno;
  const auto total = static_cast<double>(config_.total_devices);
  const double ar_total = total * paper::kArDeviceShare;

  sim::AgentOptions options;
  options.retry_rate_boost = 20.0;
  options.backoff = config_.backoff;

  auto meters = devices::m2m_profile(devices::Vertical::kSmartMeter);
  meters.p_full_period = 0.8;
  meters.p_detach_after_session = 0.08;
  auto meter_spec = base_spec(ar, static_cast<std::size_t>(ar_total * 0.75), meters, "AR");
  add_fleet(meter_spec, options);

  auto pos = devices::m2m_profile(devices::Vertical::kPosTerminal);
  pos.p_full_period = 0.8;
  pos.p_detach_after_session = 0.08;
  add_fleet(base_spec(ar, static_cast<std::size_t>(ar_total * 0.20), pos, "AR"), options);

  // A sliver of roamers across the Rio de la Plata.
  for (const auto& iso : {"UY", "PY", "CL"}) {
    auto trackers = devices::m2m_profile(devices::Vertical::kLogisticsTracker);
    add_fleet(base_spec(ar, static_cast<std::size_t>(ar_total * 0.05 / 3.0), trackers, iso),
              options);
  }
}

void M2MPlatformScenario::build_de_fleets() {
  const auto de = world_->well_known().de_hmno;
  const auto total = static_cast<double>(config_.total_devices);
  const auto de_total = static_cast<std::size_t>(total * paper::kDeDeviceShare);

  // Connected cars with pan-European mobility: few devices, many VMNOs
  // (§3.2 counts 18 visited networks on ~1,000 devices).
  sim::AgentOptions options;
  options.retry_rate_boost = 20.0;
  options.backoff = config_.backoff;
  options.corridor =
      sim::make_corridor({"DE", "FR", "IT", "AT", "PL", "NL", "BE", "CZ", "CH"});

  auto cars = devices::m2m_profile(devices::Vertical::kConnectedCar);
  cars.p_full_period = 0.7;
  cars.p_cross_country_trip = 0.25;  // high mobility requirement (§3.2)
  cars.p_vmno_switch = 0.2;
  const std::array<std::string, 4> bases{"DE", "FR", "AT", "NL"};
  for (const auto& iso : bases) {
    add_fleet(base_spec(de, de_total / bases.size(), cars, iso), options);
  }
}

}  // namespace wtr::tracegen
