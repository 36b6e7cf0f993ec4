#pragma once

// Retry-storm scenario: the overload workloads the closed-loop congestion
// model feeds on. Two fleets on the UK MNO stress its core in different
// shapes: a synchronized check-in herd of native smart meters (fixed-period
// beats, reattach-per-report firmware — the thundering herd) and a staged
// FOTA campaign over a tracker fleet whose failed image downloads retry on
// a short timer (the retry storm). The A/B arms of bench_s3 run the same
// fleets with 3GPP congestion controls honoured (T3346 + EAB) vs ignored
// (legacy firmware), against the same CongestionModel.

#include "faults/congestion.hpp"
#include "tracegen/scenario.hpp"

namespace wtr::tracegen {

/// Fault-domain tags for the storm fleets (distinct from MnoScenario's).
inline constexpr std::uint32_t kFaultDomainStormMeters = 11;
inline constexpr std::uint32_t kFaultDomainStormTrackers = 12;

struct StormScenarioConfig : RunOptions {
  std::uint64_t seed = 7331;
  /// Synchronized check-in herd (native smart meters, EAB candidates).
  std::size_t meters = 1'600;
  /// FOTA campaign fleet (logistics trackers).
  std::size_t trackers = 400;
  std::int32_t days = 3;
  /// Storms are a signaling exercise; coverage is not needed by default.
  bool build_coverage = false;

  // --- fleet firmware (the A/B knobs of the overload bench) ---------------
  /// Honour T3346 mobility backoff on kCongestion rejects. False models the
  /// death-spiral firmware that keeps hammering.
  bool honor_congestion_control = true;
  /// Meters participate in extended access barring (shed load first).
  bool eab_meters = true;

  // --- storm shaping -------------------------------------------------------
  double checkin_period_s = 4.0 * 3600.0;
  double checkin_jitter_s = 20.0;
  /// FOTA campaign kickoff (sim seconds) and per-attempt image failure rate.
  stats::SimTime fota_start_s = 30 * 3600;
  double fota_failure_p = 0.35;

  // --- plumbing ------------------------------------------------------------
  /// The closed-loop overload model (borrowed; must outlive the scenario;
  /// rolled by the engine at window barriers). Null disables congestion and
  /// keeps the run byte-identical to a congestion-free build. Capacity-drop
  /// episodes in `faults` compose with it through capacity_scale_at.
  faults::CongestionModel* congestion = nullptr;
};

class StormScenario final : public ScenarioBase {
 public:
  explicit StormScenario(const StormScenarioConfig& config = {});

  [[nodiscard]] const StormScenarioConfig& config() const noexcept { return config_; }

  /// The congested core: the observer MNO's radio network id — the key a
  /// CongestionConfig capacity override should use.
  [[nodiscard]] topology::OperatorId observer_radio() const;
  /// Dense operator-id count, for sizing a CongestionModel.
  [[nodiscard]] std::size_t operator_count() const noexcept {
    return world_->operators().size();
  }

 private:
  void build_meter_herd();
  void build_fota_trackers();

  StormScenarioConfig config_;
};

}  // namespace wtr::tracegen
