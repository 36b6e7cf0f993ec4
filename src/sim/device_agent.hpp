#pragma once

// DeviceAgent: the per-device behaviour process. On every wake it advances
// mobility, maintains its attachment (attach / reselect / fall back across
// RATs, emitting the exact signaling the paper's probes would capture),
// generates service usage (CDRs/xDRs), and schedules its next wake from its
// session-intensity process. Failed attach attempts reschedule aggressively,
// which is what produces the signaling-flood tail of Fig. 3-left.

#include <optional>

#include "devices/device.hpp"
#include "records/cdr.hpp"
#include "records/xdr.hpp"
#include "signaling/attach_backoff.hpp"
#include "signaling/emm_state.hpp"
#include "signaling/outcome_policy.hpp"
#include "signaling/t3346.hpp"
#include "sim/mobility.hpp"
#include "sim/network_selection.hpp"
#include "stats/rng.hpp"
#include "stats/sim_time.hpp"

namespace wtr::sim {

/// Streaming consumer of simulation output. Implementations aggregate in
/// place (catalog builders, platform-stat accumulators) or buffer raw rows
/// (trace exporters). Default no-ops let consumers subscribe selectively.
class RecordSink {
 public:
  virtual ~RecordSink() = default;

  /// `data_context` tells which radio interface family the event rides on.
  virtual void on_signaling(const signaling::SignalingTransaction& txn,
                            bool data_context) {
    (void)txn;
    (void)data_context;
  }
  virtual void on_cdr(const records::Cdr& cdr) { (void)cdr; }
  virtual void on_xdr(const records::Xdr& xdr) { (void)xdr; }
  /// Time spent attached at a location within a single day (already split
  /// on day boundaries). Basis of the centroid/gyration metrics. Carries
  /// the visited network so observers can keep only their own sectors.
  virtual void on_dwell(signaling::DeviceHash device, std::int32_t day,
                        cellnet::Plmn visited_plmn, const cellnet::GeoPoint& location,
                        double seconds) {
    (void)device;
    (void)day;
    (void)visited_plmn;
    (void)location;
    (void)seconds;
  }
};

/// Shared (per-engine) context handed to agents on every wake.
struct AgentContext {
  const topology::World* world = nullptr;
  const NetworkSelector* selector = nullptr;
  const signaling::OutcomePolicy* outcomes = nullptr;
  RecordSink* sink = nullptr;
};

/// Synchronized check-in (thundering herd): replaces the exponential
/// session process with fixed-period beats anchored at `offset_s` plus a
/// small uniform jitter — the firmware pattern where a whole fleet reports
/// in near-simultaneously (the Finley cellular-IoT studies' dominant M2M
/// traffic shape, and the load spike the congestion model feeds on).
struct SyncCheckinConfig {
  bool enabled = false;
  double period_s = 6.0 * 3600.0;
  double offset_s = 0.0;
  /// Uniform [0, jitter_s) added per beat; small values keep the herd tight.
  double jitter_s = 30.0;
};

/// Staged FOTA campaign with failed-image retry storms: the device's wave
/// (id mod `waves`) starts at `start_s + wave * wave_interval_s`; each
/// attempt downloads the image and fails with `failure_p`, retrying after
/// `retry_s` plus uniform jitter, up to `max_attempts` total attempts.
struct FotaCampaignConfig {
  bool enabled = false;
  stats::SimTime start_s = 0;
  int waves = 4;
  stats::SimTime wave_interval_s = 3600;
  double image_bytes = 8.0 * 1024.0 * 1024.0;
  double failure_p = 0.0;
  stats::SimTime retry_s = 600;
  double retry_jitter_s = 120.0;
  int max_attempts = 6;
};

struct AgentOptions {
  TravelCorridor corridor;       // long-haul destinations
  /// Legacy retry model: wake-rate multiplier while unattached. Used only
  /// when `backoff.enabled` is false; it is the tuned approximation the
  /// calibrated scenarios were fit with.
  double retry_rate_boost = 15.0;
  /// Mechanistic retry model: 3GPP T3411/T3402 attach backoff. When
  /// enabled, failed attach rounds schedule the next wake from the backoff
  /// state machine instead of boosting the session rate — retry storms then
  /// emerge from synchronized timers rather than a multiplier.
  signaling::AttachBackoffConfig backoff{};
  /// After the (sticky) primary network rejects the device, probability of
  /// trying further networks this wake rather than backing off. Real UE
  /// firmware retries its stored PLMN list conservatively; this is what
  /// keeps even pure-failure devices from spraying across every VMNO.
  double p_explore_after_failure = 0.25;
  /// Honour 3GPP congestion controls: start T3346 on a kCongestion reject
  /// and respect extended access barring when `eab_member`. False models
  /// legacy firmware that treats congestion as a generic failure and keeps
  /// hammering — the death-spiral fleet in the A/B storm bench. Irrelevant
  /// (and RNG-invisible) while no congestion model is installed.
  bool honor_congestion_control = true;
  /// Delay-tolerant device class (smart meters): subject to EAB, shedding
  /// load first when the network is overloaded.
  bool eab_member = false;
  SyncCheckinConfig checkin{};
  FotaCampaignConfig fota{};
};

class DeviceAgent {
 public:
  /// Hydration constructor (see sim::AgentArena): binds the agent to its
  /// arena-owned device row and interned options, with `rng` already past
  /// the first-wake draw and `first_wake` as computed by plan_first_wake at
  /// registration. Both pointers must outlive the agent; `device` is
  /// mutated in place (position, current country).
  DeviceAgent(devices::Device* device, const AgentOptions* options, stats::Rng rng,
              stats::SimTime first_wake);

  /// Registration-time half of agent construction: the first wake time
  /// (within the device's arrival day), drawn from `rng` exactly as the
  /// eager construction path always did. Requires a non-empty active
  /// window (callers check and drop empty-window devices before drawing).
  [[nodiscard]] static stats::SimTime plan_first_wake(const devices::Device& device,
                                                      stats::Rng& rng);

  /// Handle a wake at `now`; returns the next wake time, or nullopt when
  /// the device is done for the simulation.
  std::optional<stats::SimTime> on_wake(stats::SimTime now, const AgentContext& ctx);

  [[nodiscard]] const devices::Device& device() const noexcept { return *device_; }
  [[nodiscard]] const signaling::EmmStateMachine& emm() const noexcept { return emm_; }
  [[nodiscard]] const signaling::AttachBackoff& backoff() const noexcept {
    return backoff_;
  }
  [[nodiscard]] const signaling::T3346Timer& t3346() const noexcept { return t3346_; }
  [[nodiscard]] bool fota_done() const noexcept { return fota_done_; }
  [[nodiscard]] std::int32_t fota_attempts() const noexcept { return fota_attempts_; }

  /// Checkpoint support: serialize everything that mutates after
  /// construction (RNG stream, EMM machine, backoff timers, position,
  /// serving cell, dwell bookkeeping). The immutable identity/behaviour
  /// fields are rebuilt deterministically by the scenario; restore_state
  /// verifies the device id matches and throws std::runtime_error when the
  /// snapshot belongs to a differently composed fleet. The current country
  /// is stored as ISO text; an unknown or empty code throws the same error.
  void save_state(util::BinWriter& out) const;
  void restore_state(util::BinReader& in);

 private:
  struct Serving {
    topology::OperatorId visited = topology::kInvalidOperator;
    cellnet::Rat rat = cellnet::Rat::kTwoG;
    cellnet::SectorId sector = 0;
    cellnet::GeoPoint location{};
    bool is_home = false;
  };

  [[nodiscard]] stats::SimTime departure_time() const noexcept;
  [[nodiscard]] std::optional<stats::SimTime> schedule_next(stats::SimTime now);
  void finalize(stats::SimTime now, const AgentContext& ctx);

  /// Locate the serving sector / position for an attachment.
  [[nodiscard]] Serving locate(const AgentContext& ctx, const NetworkChoice& choice) const;

  void emit_signaling(const AgentContext& ctx, stats::SimTime now,
                      signaling::Procedure procedure, signaling::ResultCode result,
                      cellnet::Rat rat, bool data_context);
  void flush_dwell(const AgentContext& ctx, stats::SimTime now);

  /// Try to attach somewhere; emits all attempt signaling. Returns true on
  /// success (serving_ becomes valid).
  bool try_attach(const AgentContext& ctx, stats::SimTime now,
                  std::optional<topology::OperatorId> exclude);

  void do_session(const AgentContext& ctx, stats::SimTime now);

  /// Start of this device's FOTA wave (campaign start + wave offset).
  [[nodiscard]] stats::SimTime fota_wave_time() const noexcept;
  /// Future instant the FOTA campaign wants a wake for, if any.
  [[nodiscard]] std::optional<stats::SimTime> fota_due_time(stats::SimTime now) const;
  /// Attempt the pending FOTA download while attached (emits the transfer
  /// xDR; failures arm the retry timer — the retry-storm generator).
  void maybe_fota(const AgentContext& ctx, stats::SimTime now);

  devices::Device* device_;         // arena-owned row, mutated in place
  const AgentOptions* options_;     // interned per fleet, shared
  stats::Rng rng_;
  signaling::EmmStateMachine emm_;
  signaling::AttachBackoff backoff_;
  /// Congestion-control mobility backoff; started on kCongestion rejects
  /// when honor_congestion_control is set, and gates re-attach until expiry.
  signaling::T3346Timer t3346_;
  // FOTA campaign progress (inert unless options_.fota.enabled).
  bool fota_done_ = false;
  std::int32_t fota_attempts_ = 0;
  stats::SimTime fota_retry_at_ = -1;
  /// Delay chosen by the backoff machine after the last failed attach round
  /// (seconds); consumed by schedule_next when backoff is enabled.
  double pending_retry_delay_s_ = 0.0;
  Serving serving_{};
  /// Last successfully used network: real devices are sticky — they camp on
  /// the network that worked until steering, failure or a border crossing
  /// forces a change. This is what keeps 65% of roaming devices on a single
  /// VMNO (Fig. 3-center) despite many attach cycles.
  std::optional<topology::OperatorId> preferred_visited_;
  stats::SimTime last_wake_ = 0;
  stats::SimTime dwell_since_ = 0;
  bool last_attach_failed_ = false;  // drives the retry-rate boost
  bool finalized_ = false;
};

}  // namespace wtr::sim
