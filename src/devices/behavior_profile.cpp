#include "devices/behavior_profile.hpp"

namespace wtr::devices {

BehaviorProfile smartphone_profile() noexcept {
  BehaviorProfile p;
  p.device_class = DeviceClass::kSmartphone;
  p.vertical = Vertical::kNone;
  p.equipment = cellnet::EquipmentCategory::kSmartphone;
  p.sessions_per_day_mu = 3.0;   // exp(3.0) ≈ 20 sessions/day median
  p.sessions_per_day_sigma = 0.7;
  p.diurnal_floor = 0.15;        // strong human diurnal pattern
  p.p_full_period = 0.85;        // native phones live on the network
  p.active_span_days_mean = 10.0;
  p.p_no_data = 0.02;
  p.bytes_per_day_mu = 18.0;     // ≈ 65 MB/day median
  p.bytes_per_day_sigma = 1.2;
  p.p_no_voice = 0.05;
  p.calls_per_day_mean = 4.0;
  p.call_seconds_mean = 110.0;
  p.mobility = MobilityKind::kLocalCommuter;
  p.commute_radius_m = 9'000.0;
  p.p_vmno_switch = 0.01;
  p.area_updates_per_session = 1.5;
  p.p_detach_after_session = 0.1;
  return p;
}

BehaviorProfile feature_phone_profile() noexcept {
  BehaviorProfile p;
  p.device_class = DeviceClass::kFeaturePhone;
  p.vertical = Vertical::kNone;
  p.equipment = cellnet::EquipmentCategory::kFeaturePhone;
  p.sessions_per_day_mu = 1.3;   // ≈ 4 sessions/day median
  p.sessions_per_day_sigma = 0.7;
  p.diurnal_floor = 0.2;
  p.p_full_period = 0.8;
  p.active_span_days_mean = 9.0;
  p.p_no_data = 0.57;            // §6.1: 56.8% of feature phones move no data
  p.bytes_per_day_mu = 11.0;     // ≈ 60 KB/day when they do
  p.bytes_per_day_sigma = 1.3;
  p.p_no_voice = 0.07;           // §6.1: only 7.3% make no calls
  p.calls_per_day_mean = 2.5;
  p.call_seconds_mean = 90.0;
  p.mobility = MobilityKind::kLocalCommuter;
  p.commute_radius_m = 5'000.0;
  p.p_vmno_switch = 0.01;
  p.area_updates_per_session = 1.0;
  p.p_detach_after_session = 0.15;
  return p;
}

BehaviorProfile m2m_profile(Vertical vertical) noexcept {
  BehaviorProfile p;
  p.device_class = DeviceClass::kM2M;
  p.vertical = vertical;
  p.equipment = cellnet::EquipmentCategory::kM2MModule;
  // Machine traffic: no diurnal pattern, stationary, low-rate by default.
  p.diurnal_floor = 1.0;
  p.mobility = MobilityKind::kStationary;
  p.p_full_period = 0.55;
  p.active_span_days_mean = 10.0;
  p.p_detach_after_session = 0.5;
  p.p_vmno_switch = 0.001;  // fixed devices essentially never churn VMNOs
  p.area_updates_per_session = 0.4;  // stationary boxes barely produce RAU/TAU
  switch (vertical) {
    case Vertical::kSmartMeter:
      p.sessions_per_day_mu = 0.7;  // ≈ 2 reporting sessions/day
      p.sessions_per_day_sigma = 0.5;
      p.p_no_data = 0.05;
      p.bytes_per_day_mu = 9.0;     // ≈ 8 KB/day of register reads
      p.bytes_per_day_sigma = 0.8;
      p.p_no_voice = 0.25;          // SMS-like supervisory contact (§6.1: most
      p.calls_per_day_mean = 0.45;  // M2M devices do register "voice" activity)
      p.call_seconds_mean = 8.0;
      p.stationary_jitter_m = 100.0;  // meters are bolted to a wall
      p.area_updates_per_session = 0.3;
      break;
    case Vertical::kConnectedCar:
      p.sessions_per_day_mu = 2.6;  // cars chat constantly while moving
      p.sessions_per_day_sigma = 0.8;
      p.p_no_data = 0.02;
      p.bytes_per_day_mu = 15.0;    // ≈ 3 MB/day
      p.bytes_per_day_sigma = 1.2;
      p.p_no_voice = 0.4;           // eCall test traffic
      p.calls_per_day_mean = 0.3;
      p.call_seconds_mean = 20.0;
      p.mobility = MobilityKind::kLongHaul;
      p.commute_radius_m = 60'000.0;
      p.p_cross_country_trip = 0.08;
      p.p_vmno_switch = 0.05;       // seamless-coverage requirement (§3.2)
      p.area_updates_per_session = 3.0;
      p.p_detach_after_session = 0.2;
      break;
    case Vertical::kLogisticsTracker:
      p.sessions_per_day_mu = 1.6;
      p.sessions_per_day_sigma = 0.9;
      p.p_no_data = 0.05;
      p.bytes_per_day_mu = 10.5;
      p.bytes_per_day_sigma = 1.0;
      p.p_no_voice = 0.25;
      p.calls_per_day_mean = 0.35;
      p.call_seconds_mean = 8.0;
      p.mobility = MobilityKind::kLongHaul;
      p.commute_radius_m = 40'000.0;
      p.p_cross_country_trip = 0.05;
      p.p_vmno_switch = 0.005;
      p.area_updates_per_session = 1.5;
      break;
    case Vertical::kWearable:
      p.sessions_per_day_mu = 1.8;
      p.sessions_per_day_sigma = 0.7;
      p.diurnal_floor = 0.4;        // worn by humans: partial diurnality
      p.p_no_data = 0.08;
      p.bytes_per_day_mu = 12.0;
      p.bytes_per_day_sigma = 1.0;
      p.p_no_voice = 0.3;
      p.calls_per_day_mean = 0.3;
      p.call_seconds_mean = 30.0;
      p.mobility = MobilityKind::kLocalCommuter;
      p.commute_radius_m = 7'000.0;
      p.p_vmno_switch = 0.002;
      break;
    case Vertical::kPosTerminal:
      p.sessions_per_day_mu = 1.9;  // one session per transaction batch
      p.sessions_per_day_sigma = 0.6;
      p.diurnal_floor = 0.3;        // shops have opening hours
      p.p_no_data = 0.03;
      p.bytes_per_day_mu = 9.5;
      p.bytes_per_day_sigma = 0.7;
      p.p_no_voice = 0.25;
      p.calls_per_day_mean = 0.4;
      p.call_seconds_mean = 5.0;
      p.p_vmno_switch = 0.002;      // failover-driven reselection (§2.2)
      break;
    case Vertical::kVendingMachine:
      p.sessions_per_day_mu = -0.7; // ≈ 0.5 sessions/day (stock report)
      p.sessions_per_day_sigma = 0.6;
      p.p_no_data = 0.10;
      p.bytes_per_day_mu = 7.5;
      p.bytes_per_day_sigma = 0.8;
      p.p_no_voice = 0.3;
      p.calls_per_day_mean = 0.35;
      p.call_seconds_mean = 5.0;
      break;
    case Vertical::kSecurityAlarm:
      p.sessions_per_day_mu = 0.3;
      p.sessions_per_day_sigma = 0.6;
      p.p_no_data = 0.85;           // the voice-only M2M population of §6.1
      p.bytes_per_day_mu = 7.0;
      p.bytes_per_day_sigma = 0.7;
      p.p_no_voice = 0.1;           // supervisory "calls" are their channel
      p.calls_per_day_mean = 0.8;
      p.call_seconds_mean = 12.0;
      break;
    case Vertical::kFleetTelematics:
      p.sessions_per_day_mu = 2.0;
      p.sessions_per_day_sigma = 0.8;
      p.p_no_data = 0.04;
      p.bytes_per_day_mu = 12.5;
      p.bytes_per_day_sigma = 1.0;
      p.p_no_voice = 0.35;
      p.calls_per_day_mean = 0.2;
      p.call_seconds_mean = 10.0;
      p.mobility = MobilityKind::kLongHaul;
      p.commute_radius_m = 30'000.0;
      p.p_cross_country_trip = 0.03;
      p.p_vmno_switch = 0.008;
      p.area_updates_per_session = 1.5;
      break;
    case Vertical::kEbookReader:
      p.sessions_per_day_mu = -0.4;
      p.sessions_per_day_sigma = 0.9;
      p.diurnal_floor = 0.3;
      p.p_no_data = 0.05;
      p.bytes_per_day_mu = 11.0;
      p.bytes_per_day_sigma = 1.4;
      p.p_no_voice = 0.98;
      p.calls_per_day_mean = 0.0;
      p.call_seconds_mean = 0.0;
      p.mobility = MobilityKind::kLocalCommuter;
      p.commute_radius_m = 4'000.0;
      break;
    case Vertical::kNone:
      break;
  }
  return p;
}

}  // namespace wtr::devices
