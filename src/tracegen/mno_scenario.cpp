#include "tracegen/mno_scenario.hpp"

#include <array>

#include "stats/distributions.hpp"
#include <cassert>

#include "cellnet/country.hpp"
#include "tracegen/calibration.hpp"

namespace wtr::tracegen {

namespace {

topology::WorldConfig world_config_for(const MnoScenarioConfig& config) {
  topology::WorldConfig wc;
  wc.seed = config.seed;
  wc.build_coverage = config.build_coverage;
  if (config.sunset_2g_in_uk) wc.two_g_sunset_isos.push_back("GB");
  if (config.nbiot_meter_share > 0.0) {
    wc.nbiot_isos = {"GB", "NL"};
    wc.nbiot_roaming_enabled = true;
  }
  return wc;
}

sim::Engine::Config engine_config_for(const MnoScenarioConfig& config) {
  sim::Engine::Config ec;
  ec.seed = stats::mix64(config.seed, 0x4d4e4f);
  ec.horizon_days = config.days;
  ec.outcomes.transient_failure_rate = 0.001;
  return ec;
}

cellnet::RatMask two_g_only() { return cellnet::RatMask{0b001}; }

}  // namespace

MnoScenario::MnoScenario(const MnoScenarioConfig& config)
    : ScenarioBase(world_config_for(config), cellnet::TacPools::Config{config.seed ^ 0x6d6e},
                   engine_config_for(config), config,
                   stats::mix64(config.seed, 0x6f6b)),
      config_(config) {
  // The scenario models the population of THIS UK MNO. Inbound SIMs'
  // home operators steer their UK roamers to it (commercial preference);
  // without this the fleets would spread evenly across the three GB MNOs
  // and only a third of each target population would be observed.
  const auto observer = world_->well_known().uk_mno;
  const auto gb = cellnet::require_country_id("GB");
  for (const auto& op : world_->operators().all()) {
    if (op.country != gb) {
      world_->set_steering_weight(op.id, observer, 15.0);
    }
  }
  build_smartphone_fleets();
  build_feature_phone_fleets();
  build_native_m2m_fleets();
  build_inbound_m2m_fleets();
  build_maybe_fleets();
}

cellnet::Plmn MnoScenario::observer_plmn() const {
  return world_->operators().get(world_->well_known().uk_mno).plmn;
}

std::vector<cellnet::Plmn> MnoScenario::mvno_plmns() const {
  std::vector<cellnet::Plmn> out;
  for (const auto id : world_->well_known().uk_mvnos) {
    out.push_back(world_->operators().get(id).plmn);
  }
  return out;
}

std::vector<cellnet::Plmn> MnoScenario::family_plmns() const {
  auto out = mvno_plmns();
  out.insert(out.begin(), observer_plmn());
  return out;
}

sim::AgentOptions MnoScenario::base_options() const {
  sim::AgentOptions base;
  base.backoff = config_.backoff;
  return base;
}

topology::OperatorId MnoScenario::foreign_mno(const std::string& iso) const {
  const auto mnos = world_->operators().mnos_in_country(cellnet::require_country_id(iso));
  assert(!mnos.empty());
  return mnos.front();
}

void MnoScenario::build_smartphone_fleets() {
  const auto& wk = world_->well_known();
  sim::AgentOptions options = base_options();

  // --- Native smartphones (H:H).
  {
    devices::FleetSpec spec;
    spec.count = scaled(0.315);
    spec.home_operator = wk.uk_mno;
    spec.profile = devices::smartphone_profile();
    spec.deployment_iso = "GB";
    spec.apn_policy = devices::ApnPolicy::kConsumer;
    spec.horizon_days = config_.days;
    add_fleet(spec, options);
  }

  // --- MVNO smartphones (V:H), split across the three MVNOs.
  for (const auto mvno : wk.uk_mvnos) {
    devices::FleetSpec spec;
    spec.count = scaled(0.21 / 3.0);
    spec.home_operator = mvno;
    spec.profile = devices::smartphone_profile();
    spec.deployment_iso = "GB";
    spec.apn_policy = devices::ApnPolicy::kConsumer;
    spec.horizon_days = config_.days;
    add_fleet(spec, options);
  }

  // --- Inbound-roaming tourists (I:H): short stays, data restraint ("bill
  // shock", §6.2). Home countries follow a travel-volume mix; the NL/SE/ES
  // trio stays a modest share for smartphones (§5.2: 17%).
  struct TouristSource {
    const char* iso;
    double fraction;  // of total devices
  };
  static constexpr std::array<TouristSource, 20> kTourists{{
      {"IE", 0.0115}, {"FR", 0.0095}, {"DE", 0.0085}, {"US", 0.0070},
      {"ES", 0.0065}, {"IT", 0.0055}, {"NL", 0.0050}, {"PL", 0.0048},
      {"SE", 0.0038}, {"PT", 0.0035}, {"RO", 0.0030}, {"AU", 0.0025},
      {"IN", 0.0022}, {"CN", 0.0020}, {"JP", 0.0018}, {"CA", 0.0016},
      {"BE", 0.0014}, {"DK", 0.0012}, {"GR", 0.0011}, {"TR", 0.0021},
  }};
  for (const auto& source : kTourists) {
    devices::FleetSpec spec;
    spec.count = scaled(source.fraction);
    spec.home_operator = foreign_mno(source.iso);
    spec.profile = devices::smartphone_profile();
    spec.profile.p_full_period = 0.03;       // §5.3: median 2 active days
    spec.profile.active_span_days_mean = 1.0;
    spec.profile.bytes_per_day_mu = 16.0;    // restrained roaming data
    spec.deployment_iso = "GB";
    spec.apn_policy = devices::ApnPolicy::kConsumer;
    spec.horizon_days = config_.days;
    add_fleet(spec, options);
  }

  // --- Outbound roamers (H:A): the MNO's own customers abroad; only their
  // CDRs/xDRs reach the catalog.
  for (const auto* iso : {"ES", "FR", "US"}) {
    devices::FleetSpec spec;
    spec.count = scaled(0.004);
    spec.home_operator = wk.uk_mno;
    spec.profile = devices::smartphone_profile();
    spec.profile.p_full_period = 0.10;
    spec.profile.active_span_days_mean = 4.0;
    spec.profile.bytes_per_day_mu = 16.0;
    spec.deployment_iso = iso;
    spec.apn_policy = devices::ApnPolicy::kConsumer;
    spec.horizon_days = config_.days;
    add_fleet(spec, options);
  }
}

void MnoScenario::build_feature_phone_fleets() {
  const auto& wk = world_->well_known();
  sim::AgentOptions options = base_options();

  devices::FleetSpec native;
  native.count = scaled(0.050);
  native.home_operator = wk.uk_mno;
  native.profile = devices::feature_phone_profile();
  native.deployment_iso = "GB";
  native.apn_policy = devices::ApnPolicy::kConsumer;
  native.horizon_days = config_.days;
  add_fleet(native, options);

  devices::FleetSpec mvno = native;
  mvno.count = scaled(0.025);
  mvno.home_operator = wk.uk_mvnos.front();
  add_fleet(mvno, options);

  // Consumer data dongles / mobile hotspots: personal devices built on M2M
  // module hardware (Sierra Wireless made exactly these). They are the
  // confound §4.3 warns about — a vendor-list baseline calls them m2m; the
  // APN pipeline sees a consumer APN and no smartphone OS and calls them
  // feat (the closest personal-device bucket, which is also where the
  // GSMA-label path would put them).
  {
    devices::FleetSpec spec;
    spec.count = scaled(0.010);
    spec.home_operator = wk.uk_mno;
    spec.profile = devices::feature_phone_profile();
    spec.profile.equipment = cellnet::EquipmentCategory::kM2MModule;
    spec.profile.p_no_data = 0.0;        // dongles exist to move data
    spec.profile.bytes_per_day_mu = 17.0;
    spec.profile.bytes_per_day_sigma = 1.2;
    spec.profile.p_no_voice = 1.0;       // no voice at all
    spec.profile.sessions_per_day_mu = 2.2;
    spec.deployment_iso = "GB";
    spec.apn_policy = devices::ApnPolicy::kConsumer;
    spec.horizon_days = config_.days;
    spec.restrict_vendors = {"Sierra Wireless"};
    spec.force_bands = cellnet::RatMask{0b110};  // 3G/4G dongles
    add_fleet(spec, options);
  }

  // Inbound feature phones: a small population, skewed toward countries
  // where feature phones remain common (their NL/SE/ES share lands near the
  // paper's 35% because SE and NL contribute disproportionately).
  for (const auto& [iso, fraction] :
       std::initializer_list<std::pair<const char*, double>>{
           {"SE", 0.0010}, {"NL", 0.0006}, {"RO", 0.0009},
           {"PL", 0.0008}, {"IN", 0.0008}, {"EG", 0.0005},
           {"MA", 0.0004}}) {
    devices::FleetSpec spec = native;
    spec.count = scaled(fraction);
    spec.home_operator = foreign_mno(iso);
    spec.profile.p_full_period = 0.05;
    spec.profile.active_span_days_mean = 2.5;
    add_fleet(spec, options);
  }
}

void MnoScenario::build_native_m2m_fleets() {
  const auto& wk = world_->well_known();
  sim::AgentOptions options = base_options();

  // SMIP native meters: dedicated IMSI range (§4.4), long-lived, 2G+3G.
  {
    devices::FleetSpec spec;
    spec.count = scaled(0.030);
    spec.home_operator = wk.uk_mno;
    spec.profile = devices::m2m_profile(devices::Vertical::kSmartMeter);
    spec.profile.p_full_period = 0.80;
    spec.deployment_iso = "GB";
    spec.apn_policy = devices::ApnPolicy::kVerticalCompany;
    spec.horizon_days = config_.days;
    spec.imsi_range = cellnet::ImsiRange{observer_plmn(), 500'000'000ULL,
                                         500'000'000ULL + spec.count};
    spec.cap_bands = cellnet::RatMask{0b011};  // 2G+3G hardware
    spec.fault_domain = kFaultDomainNativeM2M;
    add_fleet(spec, options);
  }

  // Native security alarms: voice-only M2M (no data, no APN) on standard
  // module equipment — the classifier catches them via TAC propagation.
  {
    devices::FleetSpec spec;
    spec.count = scaled(0.020);
    spec.home_operator = wk.uk_mno;
    spec.profile = devices::m2m_profile(devices::Vertical::kSecurityAlarm);
    spec.profile.p_full_period = 0.80;
    spec.profile.p_no_data = 1.0;
    spec.deployment_iso = "GB";
    spec.apn_policy = devices::ApnPolicy::kNone;
    spec.horizon_days = config_.days;
    spec.cap_bands = two_g_only();
    add_fleet(spec, options);
  }

  // Native fleet telematics (UK logistics companies).
  {
    devices::FleetSpec spec;
    spec.count = scaled(0.016);
    spec.home_operator = wk.uk_mno;
    spec.profile = devices::m2m_profile(devices::Vertical::kFleetTelematics);
    spec.profile.p_full_period = 0.75;
    spec.deployment_iso = "GB";
    spec.apn_policy = devices::ApnPolicy::kVerticalCompany;
    spec.horizon_days = config_.days;
    add_fleet(spec, options);
  }
}

void MnoScenario::build_inbound_m2m_fleets() {
  const auto& wk = world_->well_known();
  sim::AgentOptions options = base_options();

  auto inbound_profile = [&](devices::Vertical vertical) {
    auto profile = devices::m2m_profile(vertical);
    profile.p_full_period = 0.36;            // §5.3: median ≈ 9 active days
    profile.active_span_days_mean = 11.0;
    return profile;
  };

  // --- NL: the SMIP-roaming smart meters (§4.4). Single home operator,
  // Gemalto/Telit modules only, 2G-only hardware, energy-company APNs.
  // Under the X3 what-if a slice of the fleet is provisioned on NB-IoT
  // modules instead (§8: dedicated LPWA platform).
  {
    const double nb_share = stats::clamped(config_.nbiot_meter_share, 0.0, 1.0);
    devices::FleetSpec spec;
    spec.count = scaled(0.076 * (1.0 - nb_share));
    spec.home_operator = wk.nl_iot_provisioner;
    spec.profile = inbound_profile(devices::Vertical::kSmartMeter);
    spec.deployment_iso = "GB";
    spec.apn_policy = devices::ApnPolicy::kVerticalCompany;
    spec.horizon_days = config_.days;
    spec.cap_bands = two_g_only();
    spec.restrict_vendors = {"Gemalto", "Telit"};
    spec.fault_domain = kFaultDomainInboundMeters;
    add_fleet(spec, options);

    if (nb_share > 0.0) {
      devices::FleetSpec nb_spec = spec;
      nb_spec.count = scaled(0.076 * nb_share);
      // NB-IoT modules: LPWA radio only; the module hardware pool still
      // provides the TACs (force the NB band on top).
      nb_spec.cap_bands = cellnet::RatMask{
          static_cast<std::uint8_t>(1U << static_cast<std::uint8_t>(cellnet::Rat::kNbIot))};
      nb_spec.force_bands = nb_spec.cap_bands;
      add_fleet(nb_spec, options);
    }
  }
  // NL voice-only alarms + wearables.
  {
    devices::FleetSpec spec;
    spec.count = scaled(0.012);
    spec.home_operator = wk.nl_iot_provisioner;
    spec.profile = inbound_profile(devices::Vertical::kSecurityAlarm);
    spec.profile.p_no_data = 1.0;
    spec.deployment_iso = "GB";
    spec.apn_policy = devices::ApnPolicy::kNone;
    spec.horizon_days = config_.days;
    spec.cap_bands = two_g_only();
    add_fleet(spec, options);
  }

  // --- SE: telematics / trackers / alarms.
  struct InboundFleet {
    const char* iso;
    double fraction;
    devices::Vertical vertical;
    bool no_data;
    bool cap_2g;
  };
  static constexpr std::array<InboundFleet, 25> kFleets{{
      {"SE", 0.012, devices::Vertical::kFleetTelematics, false, false},
      {"SE", 0.010, devices::Vertical::kLogisticsTracker, false, false},
      {"SE", 0.012, devices::Vertical::kPosTerminal, false, true},
      {"SE", 0.008, devices::Vertical::kSecurityAlarm, true, true},
      {"ES", 0.010, devices::Vertical::kConnectedCar, false, false},
      {"ES", 0.012, devices::Vertical::kPosTerminal, false, true},
      {"ES", 0.006, devices::Vertical::kEbookReader, false, true},
      {"ES", 0.006, devices::Vertical::kVendingMachine, false, true},
      {"ES", 0.008, devices::Vertical::kSecurityAlarm, true, true},
      {"DE", 0.006, devices::Vertical::kConnectedCar, false, false},
      {"FR", 0.005, devices::Vertical::kLogisticsTracker, false, true},
      {"FR", 0.003, devices::Vertical::kVendingMachine, false, true},
      {"IT", 0.006, devices::Vertical::kVendingMachine, false, true},
      {"US", 0.005, devices::Vertical::kPosTerminal, false, true},
      {"PL", 0.004, devices::Vertical::kLogisticsTracker, false, true},
      {"PT", 0.003, devices::Vertical::kVendingMachine, false, true},
      {"IE", 0.003, devices::Vertical::kSmartMeter, false, true},
      {"BE", 0.003, devices::Vertical::kWearable, false, false},
      {"AT", 0.002, devices::Vertical::kPosTerminal, false, true},
      {"DK", 0.002, devices::Vertical::kLogisticsTracker, false, true},
      {"NO", 0.002, devices::Vertical::kWearable, false, false},
      {"FI", 0.002, devices::Vertical::kVendingMachine, false, true},
      {"CZ", 0.002, devices::Vertical::kPosTerminal, false, true},
      {"CN", 0.001, devices::Vertical::kLogisticsTracker, false, true},
      {"JP", 0.001, devices::Vertical::kWearable, false, false},
  }};
  for (const auto& fleet : kFleets) {
    devices::FleetSpec spec;
    spec.count = scaled(fleet.fraction);
    spec.home_operator = fleet.iso == std::string_view{"ES"}
                             ? wk.es_hmno  // ES devices ride the M2M platform
                             : foreign_mno(fleet.iso);
    spec.profile = inbound_profile(fleet.vertical);
    if (fleet.no_data) spec.profile.p_no_data = 1.0;
    spec.deployment_iso = "GB";
    spec.apn_policy = fleet.no_data ? devices::ApnPolicy::kNone
                      : fleet.iso == std::string_view{"ES"}
                          ? devices::ApnPolicy::kM2MPlatform
                          : devices::ApnPolicy::kVerticalCompany;
    spec.horizon_days = config_.days;
    if (fleet.cap_2g) spec.cap_bands = two_g_only();
    sim::AgentOptions fleet_options = options;
    if (fleet.vertical == devices::Vertical::kConnectedCar) {
      fleet_options.corridor = sim::make_corridor({"GB", "FR", "BE"});
      spec.profile.p_cross_country_trip = 0.02;  // mostly stays in the UK
    }
    add_fleet(spec, fleet_options);
  }
}

void MnoScenario::build_maybe_fleets() {
  const auto& wk = world_->well_known();
  sim::AgentOptions options = base_options();

  // Long-tail OEM equipment, voice-only, no APN, and no TAC overlap with
  // any validated fleet: the classifier can only say m2m-maybe (§4.3's 4%).
  auto make = [&](topology::OperatorId home, double fraction, double p_full) {
    devices::FleetSpec spec;
    spec.count = scaled(fraction);
    spec.home_operator = home;
    spec.profile = devices::m2m_profile(devices::Vertical::kSecurityAlarm);
    spec.profile.p_full_period = p_full;
    spec.profile.p_no_data = 1.0;
    spec.deployment_iso = "GB";
    spec.apn_policy = devices::ApnPolicy::kNone;
    spec.horizon_days = config_.days;
    spec.use_filler_equipment = true;
    spec.cap_bands = two_g_only();
    add_fleet(spec, options);
  };
  make(wk.uk_mno, 0.020, 0.8);                 // native voice-only boxes
  make(wk.nl_iot_provisioner, 0.012, 0.3);     // inbound, global IoT SIMs
  make(foreign_mno("SE"), 0.008, 0.3);
}

}  // namespace wtr::tracegen
