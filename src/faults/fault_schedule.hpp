#pragma once

// Deterministic fault injection for the simulator. A FaultSchedule is a
// static list of episodes — operator outages, signaling-storm bursts,
// degraded roaming-hub paths, per-fleet misprovisioning ramps — that
// OutcomePolicy consults by sim time. The schedule itself consumes no
// randomness: identical (seed, schedule) pairs replay bit-identically, and
// an empty schedule leaves the output bit-identical to a build without the
// subsystem (the fast path never perturbs the RNG stream).
//
// Paper grounding: §3.3 observes episodic, operator-specific reject bursts
// in the platform trace (misconfigured agreements, core hiccups), and §5
// shows the synchronized retry storms they trigger across IoT fleets.

#include <cstdint>
#include <vector>

#include "stats/sim_time.hpp"
#include "topology/roaming_hub.hpp"

namespace wtr::faults {

/// Fleet scope wildcard: an episode with this domain applies to every
/// device; a device built without an explicit domain only matches wildcard
/// episodes.
inline constexpr std::uint32_t kAnyFaultDomain = 0;

enum class FaultKind : std::uint8_t {
  /// Visited radio network down: attach-family procedures fail with
  /// NetworkFailure. `severity` is the fraction of attempts swallowed
  /// (1.0 = hard outage).
  kOutage,
  /// Core overload (registration storm backpressure): `severity` is the
  /// extra reject probability on otherwise-OK procedures.
  kSignalingStorm,
  /// Roaming interconnect (hub/IPX) degraded: roaming attempts routed via
  /// the hub fail with probability `severity`; home attaches are untouched.
  kDegradedPath,
  /// Fleet-scoped provisioning decay: devices of the episode's fault
  /// domain are rejected with UnknownSubscription at probability
  /// `severity` (ramping over the window when `ramp` is set).
  kMisprovisioning,
  /// Signaling-capacity loss on the operator's core (site failure, planned
  /// maintenance): not a per-attempt reject — the congestion model scales
  /// the operator's configured capacity by Π(1 - severity) over active
  /// episodes, so offered load that used to fit now overloads.
  kCapacityDrop,
};

struct FaultEpisode {
  FaultKind kind = FaultKind::kOutage;
  stats::SimTime begin = 0;  // inclusive
  stats::SimTime end = 0;    // exclusive; begin >= end is inert
  double severity = 1.0;     // probability mass, clamped to [0, 1] on add()
  /// Scope for kOutage / kSignalingStorm: the *radio network* operator
  /// (MVNO traffic rides its host's network and is hit with it).
  /// kInvalidOperator means every network.
  topology::OperatorId op = topology::kInvalidOperator;
  /// Scope for kDegradedPath: kInvalidHub means every hub-mediated path.
  topology::HubId hub = topology::kInvalidHub;
  /// Scope for kMisprovisioning: kAnyFaultDomain means every fleet.
  std::uint32_t fault_domain = kAnyFaultDomain;
  /// Linear ramp: severity scales with progress through the window instead
  /// of applying flat (misprovisioning batches decay gradually).
  bool ramp = false;

  [[nodiscard]] bool active_at(stats::SimTime now) const noexcept {
    return now >= begin && now < end;
  }
  /// Episode severity at an instant (0 outside the window; ramped inside).
  [[nodiscard]] double severity_at(stats::SimTime now) const noexcept;
};

/// Aggregated fault pressure on one procedure attempt. Probabilities from
/// overlapping episodes of the same kind combine independently:
/// p = 1 - Π(1 - p_i).
struct FaultEffect {
  double outage = 0.0;
  double storm_reject = 0.0;
  double path_degraded = 0.0;
  double misprovisioned = 0.0;

  [[nodiscard]] bool any() const noexcept {
    return outage > 0.0 || storm_reject > 0.0 || path_degraded > 0.0 ||
           misprovisioned > 0.0;
  }
  /// Combined probability of a NetworkFailure-class reject (everything but
  /// the misprovisioning channel, which maps to UnknownSubscription).
  [[nodiscard]] double combined_reject() const noexcept {
    return 1.0 - (1.0 - outage) * (1.0 - storm_reject) * (1.0 - path_degraded);
  }
};

class FaultSchedule {
 public:
  FaultSchedule() = default;

  /// Append an episode (severity clamped to [0, 1]). Episodes may overlap
  /// freely; zero-length windows are accepted and inert.
  void add(FaultEpisode episode);

  // Convenience builders (times in sim seconds; see stats::day_start).
  void add_outage(topology::OperatorId op, stats::SimTime begin, stats::SimTime end,
                  double severity = 1.0);
  void add_storm(topology::OperatorId op, stats::SimTime begin, stats::SimTime end,
                 double severity);
  void add_degraded_path(topology::HubId hub, stats::SimTime begin, stats::SimTime end,
                         double severity);
  void add_misprovisioning_ramp(std::uint32_t fault_domain, stats::SimTime begin,
                                stats::SimTime end, double peak_severity);
  void add_capacity_drop(topology::OperatorId op, stats::SimTime begin,
                         stats::SimTime end, double severity, bool ramp = false);

  [[nodiscard]] bool empty() const noexcept { return episodes_.empty(); }
  [[nodiscard]] std::size_t size() const noexcept { return episodes_.size(); }
  [[nodiscard]] const std::vector<FaultEpisode>& episodes() const noexcept {
    return episodes_;
  }

  /// Aggregate fault pressure for one attempt: at `now`, against the radio
  /// network `visited_radio`, routed `via_hub` (kInvalidHub when home /
  /// bilateral), by a device of `fault_domain`.
  [[nodiscard]] FaultEffect effect_at(stats::SimTime now,
                                      topology::OperatorId visited_radio,
                                      topology::HubId via_hub,
                                      std::uint32_t fault_domain) const noexcept;

  /// Remaining signaling-capacity fraction for `radio` at `now`: the
  /// product of (1 - severity) over active kCapacityDrop episodes that
  /// match the network. 1.0 when nothing is active — the congestion model
  /// multiplies its configured capacity by this.
  [[nodiscard]] double capacity_scale_at(stats::SimTime now,
                                         topology::OperatorId radio) const noexcept;

  /// Earliest episode start / latest episode end (0/0 when empty); used by
  /// harnesses to size observation windows.
  [[nodiscard]] stats::SimTime first_begin() const noexcept;
  [[nodiscard]] stats::SimTime last_end() const noexcept;

 private:
  std::vector<FaultEpisode> episodes_;
};

}  // namespace wtr::faults
