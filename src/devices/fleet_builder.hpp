#pragma once

// Builds homogeneous fleets of devices from a spec: N devices of one
// profile, provisioned by one home operator, deployed in one country.
// Scenarios compose many fleets (e.g. the MNO scenario builds ~20 fleets:
// native smartphones, MVNO smartphones, inbound-roaming smart meters, ...).

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "cellnet/tac_catalog.hpp"
#include "devices/device.hpp"
#include "topology/world.hpp"

namespace wtr::devices {

/// How the fleet's data APN is chosen.
enum class ApnPolicy : std::uint8_t {
  kVerticalCompany,  // drawn from the vertical's company catalog
  kConsumer,         // operator consumer APN ("internet", "payandgo", ...)
  kM2MPlatform,      // global IoT SIM platform APN
  kNone,             // no APN even if the device uses data (voice-only SIMs)
};

struct FleetSpec {
  std::size_t count = 0;
  topology::OperatorId home_operator = topology::kInvalidOperator;
  BehaviorProfile profile{};
  std::string deployment_iso;        // country the devices physically sit in
  double deployment_spread_m = 20'000.0;  // scatter radius around the anchor
  ApnPolicy apn_policy = ApnPolicy::kConsumer;
  double subscription_ok_rate = 1.0;
  std::int32_t horizon_days = 22;    // observation window length
  /// Dedicated IMSI pool (e.g. the SMIP-native range); when absent, MSINs
  /// are allocated from the operator's general counter.
  std::optional<cellnet::ImsiRange> imsi_range;
  /// Restrict module vendors (SMIP-roaming meters are Gemalto/Telit only).
  std::vector<std::string> restrict_vendors;
  /// Bands guaranteed on the hardware regardless of the drawn TAC (the M2M
  /// platform fleets are all 4G-capable by construction).
  cellnet::RatMask force_bands{};
  /// Restrict hardware to exactly these bands when non-empty (SMIP-roaming
  /// meters are 2G-only modules).
  cellnet::RatMask cap_bands{};
  /// Fraction of SIMs provisioned without LTE enablement: their 4G attempts
  /// fail with FeatureUnsupported (§3.3's pure-failure population in the
  /// platform's 4G-only view).
  double lte_sim_disabled_rate = 0.0;
  /// Use long-tail OEM equipment (unknown GSMA label): the classifier's
  /// m2m-maybe residue.
  bool use_filler_equipment = false;
  /// Fault-schedule scope tag stamped on every device of the fleet
  /// (faults::kAnyFaultDomain = 0 leaves the fleet untagged).
  std::uint32_t fault_domain = 0;
};

class FleetBuilder {
 public:
  FleetBuilder(const topology::World& world, const cellnet::TacPools& tac_pools,
               std::uint64_t seed);

  /// Build a fleet; appends nothing anywhere — returns the devices. Device
  /// ids and IMSIs are unique across all build() calls on this builder.
  /// Throws std::invalid_argument when `spec.deployment_iso` is not a known
  /// country code.
  [[nodiscard]] std::vector<Device> build(const FleetSpec& spec);

  [[nodiscard]] std::uint64_t devices_built() const noexcept { return next_device_; }

 private:
  [[nodiscard]] cellnet::Imsi allocate_imsi(const FleetSpec& spec, std::size_t index);

  const topology::World& world_;
  const cellnet::TacPools& tac_pools_;
  stats::Rng rng_;
  std::uint64_t seed_;
  std::uint64_t next_device_ = 0;
  std::unordered_map<topology::OperatorId, std::uint64_t> msin_counters_;
};

}  // namespace wtr::devices
