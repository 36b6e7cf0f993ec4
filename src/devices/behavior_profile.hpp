#pragma once

// Per-class behavioural parameters. Each figure the paper draws is the
// image of one of these knobs: per-device session intensity (Fig. 3-left /
// Fig. 10-left), activity longevity (Fig. 7 / 11), mobility (Fig. 8 / 12),
// RAT dependence (Fig. 9), data/voice volumes (Fig. 10). Individual devices
// sample their own parameters from the distributions described here.

#include <cstdint>

#include "cellnet/tac_catalog.hpp"
#include "devices/device_class.hpp"
#include "devices/verticals.hpp"

namespace wtr::devices {

enum class MobilityKind : std::uint8_t {
  kStationary,     // smart meters, vending, POS: fixed location + cell jitter
  kLocalCommuter,  // phones, wearables: daily movement within a metro radius
  kLongHaul,       // cars, trackers: cross-region, sometimes cross-country
};

struct BehaviorProfile {
  DeviceClass device_class = DeviceClass::kM2M;
  Vertical vertical = Vertical::kNone;
  cellnet::EquipmentCategory equipment = cellnet::EquipmentCategory::kM2MModule;

  // --- Activity intensity: sessions per active day, log-normal across
  // devices (mu/sigma of the underlying normal).
  double sessions_per_day_mu = 1.0;
  double sessions_per_day_sigma = 1.0;
  // Diurnal modulation floor: 1.0 = flat (machine traffic), lower values
  // concentrate activity in human waking hours.
  double diurnal_floor = 1.0;

  // --- Presence: fraction of the observation window the device is active.
  // Devices sample an arrival day and an active-span; `p_full_period`
  // devices are active throughout (deployed before the window).
  double p_full_period = 0.5;
  double active_span_days_mean = 8.0;

  // --- Data usage.
  double p_no_data = 0.0;          // device never opens a data session
  double bytes_per_day_mu = 10.0;  // log-normal daily volume when it does
  double bytes_per_day_sigma = 1.5;

  // --- Voice usage (M2M "voice" = SMS-like supervisory contact, §6.1).
  double p_no_voice = 0.3;
  double calls_per_day_mean = 0.5;
  double call_seconds_mean = 60.0;

  // --- Mobility.
  MobilityKind mobility = MobilityKind::kStationary;
  double commute_radius_m = 8'000.0;   // local movement scale
  double stationary_jitter_m = 150.0;  // cell-reselection wobble for fixed devices
  double p_cross_country_trip = 0.0;   // per-day chance a long-haul device changes country

  // --- Network behaviour.
  double p_vmno_switch = 0.02;   // chance a (roaming) session reselects the VMNO
  double area_updates_per_session = 2.0;  // RAU/TAU volume riding on each session
  double p_detach_after_session = 0.3;    // otherwise stays attached
};

/// Canonical profiles (population-level defaults; fleets may override).
[[nodiscard]] BehaviorProfile smartphone_profile() noexcept;
[[nodiscard]] BehaviorProfile feature_phone_profile() noexcept;
[[nodiscard]] BehaviorProfile m2m_profile(Vertical vertical) noexcept;

}  // namespace wtr::devices
