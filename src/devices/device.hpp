#pragma once

// A simulated device: identity (IMSI/IMEI), home operator, ground-truth
// class, behavioural realization (each device samples its own rates from
// its profile's distributions — the heavy tails in Figs. 3 and 10 come from
// this per-device dispersion), and physical location state.

#include <cstdint>

#include "cellnet/apn.hpp"
#include "cellnet/country.hpp"
#include "cellnet/imei.hpp"
#include "cellnet/imsi.hpp"
#include "devices/behavior_profile.hpp"
#include "signaling/transaction.hpp"
#include "topology/operator_registry.hpp"

namespace wtr::devices {

struct Device {
  signaling::DeviceHash id = 0;  // one-way hash, as the datasets expose it
  cellnet::Imsi imsi{};
  cellnet::Imei imei{};
  topology::OperatorId home_operator = topology::kInvalidOperator;
  // Physical placement: the country the device currently sits in and its
  // base (deployment) country, for mobility models that orbit a home point.
  // Positions are below; the ids sit here to fill the alignment gap.
  cellnet::CountryId current_country = cellnet::kInvalidCountry;
  cellnet::CountryId home_country = cellnet::kInvalidCountry;

  BehaviorProfile profile{};
  cellnet::RatMask capability{};  // hardware bands (from the TAC catalog)
  /// SIM provisioning scope: technologies the subscription is enabled for.
  /// An LTE-capable module on a SIM without LTE enablement is rejected with
  /// FeatureUnsupported on 4G — in the platform's 4G-only trace such
  /// devices appear as pure-failure devices (§3.3's 40%).
  cellnet::RatMask sim_allowed_rats{0b1111};
  cellnet::ApnId apn{};           // data APN; empty when the device has none
  bool subscription_ok = true;
  /// Fleet tag for fault-schedule scoping (faults::kAnyFaultDomain = 0 for
  /// untagged devices): misprovisioning ramps target a specific fleet.
  std::uint32_t fault_domain = 0;

  // Per-device realizations sampled at fleet build time.
  double sessions_per_day = 1.0;
  double bytes_per_day = 0.0;  // 0 when the device never moves data
  double calls_per_day = 0.0;  // 0 when the device never uses voice
  std::int32_t arrival_day = 0;
  std::int32_t departure_day = 1;  // exclusive

  // Position in meters east/north of the current country's anchor, and the
  // base position in the home country.
  double east_m = 0.0;
  double north_m = 0.0;
  double home_east_m = 0.0;
  double home_north_m = 0.0;

  [[nodiscard]] bool active_on_day(std::int32_t day) const noexcept {
    return day >= arrival_day && day < departure_day;
  }
  [[nodiscard]] bool uses_data() const noexcept { return bytes_per_day > 0.0; }
  [[nodiscard]] bool uses_voice() const noexcept { return calls_per_day > 0.0; }
};

}  // namespace wtr::devices
