#pragma once

// The simulation engine: owns the agents and the event queue, fans records
// out to the registered sinks, and runs the clock from day 0 to the horizon.
// Deterministic: (world seed, engine seed, fleet composition) fixes the
// entire output — independent of Config::threads.
//
// Execution: agents are partitioned into K = Config::threads shards by
// stable index (agent % K), and run() is one loop for every K. It plans a
// window ending at the next cadence, congestion-bucket, stop-point or
// horizon boundary; one global pop loop then walks `queue_` in (time, seq)
// order through the window; a barrier ends it (congestion absorb and roll,
// stop/shutdown, cadence checkpoint). With K = 1 the global loop steps each
// popped agent straight into the sinks. With K > 1 each shard runs the
// window on its own pool worker, logging its records into a bounded
// RecordBuffer and publishing every wake as it finishes it, while the
// global loop on the calling thread replays each published wake instead of
// stepping the agent — so the merge streams alongside the shards, and
// threads=N output is byte-identical to threads=1 for every sink, scenario
// and fault schedule. Agents never interact (each owns a forked RNG; World,
// NetworkSelector and OutcomePolicy are consulted read-only), which is what
// makes the shard windows embarrassingly parallel.
//
// Relays: with K > 1 the merge replays each wake into the first sink and the
// probe itself. Every further sink gets a relay, one more RecordBuffer with
// the roles turned: the merge writes the wake into it as it replays, and a
// pool worker of the relay's own replays it into that sink, in the same
// order. So the sinks run beside the merge instead of one after another on
// it. The barrier waits for the relays too, so checkpoints, congestion
// absorb, shutdown and run()'s return all see every sink fed exactly the
// records before the barrier. K = 1, or K > 1 with one sink, builds no relay.

#include <deque>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "ckpt/snapshot.hpp"
#include "signaling/outcome_policy.hpp"
#include "sim/agent_arena.hpp"
#include "sim/device_agent.hpp"
#include "sim/event_queue.hpp"

namespace wtr::obs {
class EngineProbe;
class FlightRecorder;
class HeartbeatWriter;
class MetricsRegistry;
}  // namespace wtr::obs

namespace wtr::sim {

/// Fan-out sink: forwards every record to each registered consumer.
class MultiSink final : public RecordSink {
 public:
  /// Sinks are borrowed and must be non-null (a null would crash deep in
  /// the event loop where the culprit registration is long gone).
  void add(RecordSink* sink) {
    if (sink == nullptr) {
      throw std::invalid_argument("sim::MultiSink::add: null RecordSink");
    }
    // Grow in small blocks instead of per-push reallocation: registration
    // happens a handful of times per run, but the pointers are walked per
    // record, so keeping them in one early-settled allocation matters.
    if (sinks_.size() == sinks_.capacity()) sinks_.reserve(sinks_.size() + 4);
    sinks_.push_back(sink);
  }

  void on_signaling(const signaling::SignalingTransaction& txn,
                    bool data_context) override {
    // Single consumer is the common case (one accumulator per run): skip
    // the fan-out loop entirely.
    if (sinks_.size() == 1) {
      sinks_.front()->on_signaling(txn, data_context);
      return;
    }
    for (auto* sink : sinks_) sink->on_signaling(txn, data_context);
  }
  void on_cdr(const records::Cdr& cdr) override {
    if (sinks_.size() == 1) {
      sinks_.front()->on_cdr(cdr);
      return;
    }
    for (auto* sink : sinks_) sink->on_cdr(cdr);
  }
  void on_xdr(const records::Xdr& xdr) override {
    if (sinks_.size() == 1) {
      sinks_.front()->on_xdr(xdr);
      return;
    }
    for (auto* sink : sinks_) sink->on_xdr(xdr);
  }
  void on_dwell(signaling::DeviceHash device, std::int32_t day,
                cellnet::Plmn visited_plmn, const cellnet::GeoPoint& location,
                double seconds) override {
    if (sinks_.size() == 1) {
      sinks_.front()->on_dwell(device, day, visited_plmn, location, seconds);
      return;
    }
    for (auto* sink : sinks_) {
      sink->on_dwell(device, day, visited_plmn, location, seconds);
    }
  }

 private:
  std::vector<RecordSink*> sinks_;
};

/// Checkpoint/restore settings of Engine::Config. All-default writes no
/// snapshots.
struct CheckpointOptions {
  /// Snapshot cadence in sim hours; 0 (the default) writes no cadence
  /// snapshots. With cadence on, every cadence boundary ends a window and a
  /// snapshot is written atomically to `path` at its barrier, so the
  /// snapshot is thread-count-independent (threads=1 and threads=N write
  /// bit-identical snapshots at the same boundary). Output is byte-identical
  /// with the cadence on or off.
  std::int64_t every_sim_hours = 0;
  /// Where cadence (and graceful-shutdown / stop_after) snapshots land.
  /// Empty disables snapshot writes even when a cadence is set.
  std::string path;
  /// Deterministic in-process interrupt: stop at this sim-hour boundary,
  /// write a final snapshot, and return with interrupted() == true.
  /// 0 disables; values at or beyond the horizon are ignored. The recovery
  /// tests use this to cut a run at an exact sim-time point without
  /// involving signals.
  std::int64_t stop_after_sim_hours = 0;
};

/// Live-telemetry settings of Engine::Config. All-default disables both
/// the flight recorder and the heartbeat and keeps the run on the untraced
/// code path; enabling them never changes simulation output.
struct TelemetryOptions {
  /// Flight recorder (src/obs/trace.hpp): non-empty enables per-shard
  /// span/instant recording and writes a Chrome trace-event JSON export here
  /// at the end of the run (loadable in Perfetto). Tracing observes, never
  /// perturbs: disabled means zero extra clock reads beyond one branch per
  /// site, and enabled leaves sink output byte-identical at any thread
  /// count.
  std::string trace_path;
  /// Ring capacity per track (engine + one per shard). The recorder keeps
  /// the newest events once a ring wraps and counts the overwritten ones as
  /// dropped.
  std::size_t trace_capacity_per_track = std::size_t{1} << 15;
  /// Heartbeat/progress file (src/obs/heartbeat.hpp): non-empty makes the
  /// engine atomically rewrite a single-line JSON status here during the
  /// run, so a supervisor can tell a hung process from a slow one by the
  /// file's freshness. Independent of tracing.
  std::string heartbeat_path;
  /// Minimum wall seconds between heartbeat rewrites.
  double heartbeat_every_wall_s = 1.0;
};

class Engine {
 public:
  struct Config {
    std::uint64_t seed = 7;
    std::int32_t horizon_days = 22;
    signaling::OutcomePolicyConfig outcomes{};
    /// Shard count K. 1 (the default) steps every agent on the calling
    /// thread; K > 1 runs K shard windows on K pool workers while the
    /// calling thread replays their logged wakes deterministically — the
    /// output stays byte-identical to threads=1. Values above the agent
    /// count are clamped.
    unsigned threads = 1;
    /// Optional fault-injection schedule consulted by the outcome policy.
    /// Not owned — must outlive the engine. Null or empty leaves the run
    /// bit-identical to a build without the fault subsystem.
    const faults::FaultSchedule* faults = nullptr;
    /// Optional observability hooks (borrowed; null disables). The metrics
    /// registry receives outcome/engine counters; the probe samples the
    /// event loop on its sim-time cadence and rides the record stream as an
    /// extra sink. Neither touches any RNG: instrumented runs stay
    /// byte-identical to bare ones. With K > 1 shards the outcome counters
    /// accumulate in per-shard registries merged at checkpoints and at the
    /// end of the run, and the probe is driven off the global pop loop —
    /// trajectories stay deterministic.
    obs::MetricsRegistry* metrics = nullptr;
    obs::EngineProbe* probe = nullptr;
    /// Optional closed-loop congestion model (borrowed; must outlive the
    /// engine). When installed, window stops are additionally clamped to
    /// the model's bucket boundaries, shards count attach attempts into
    /// private ledgers, and the engine absorbs + rolls the model at
    /// barriers on the calling thread — reject probabilities for bucket k are
    /// a pure function of bucket k-1's merged load, so threads=N stays
    /// byte-identical to threads=1. Null leaves every run bit-identical to
    /// a build without the subsystem (no extra RNG draws, no clamping).
    /// The model's state rides inside engine snapshots; resume requires the
    /// same model presence and operator count.
    faults::CongestionModel* congestion = nullptr;
    /// Checkpoint/restore plumbing (all-default writes no snapshots).
    CheckpointOptions ckpt{};
    /// Flight recorder and heartbeat (all-default disables both).
    TelemetryOptions telemetry{};
  };

  Engine(const topology::World& world, Config config);
  ~Engine();  // defined in engine.cpp: unique_ptr members of fwd-declared types

  /// Add a fleet of devices, all sharing the same agent options (interned
  /// once in the arena). Devices whose active window is empty are dropped
  /// silently. Throws std::length_error when the registration would push
  /// the agent count past what AgentIndex can address.
  void add_fleet(std::vector<devices::Device> fleet, AgentOptions options);

  /// Number of agents registered.
  [[nodiscard]] std::size_t agent_count() const noexcept { return arena_.size(); }

  /// Read access to an agent's device (e.g. ground truth for validation).
  /// Served from the arena's cold catalog — does not hydrate the agent.
  [[nodiscard]] const devices::Device& device(std::size_t index) const {
    return arena_.device(index);
  }

  /// Read access to a full agent (EMM machine, backoff timers) — used by
  /// the recovery tests to assert resumed state equals uninterrupted state.
  /// Hydrates a dormant agent on access (deterministic materialization of
  /// its registration-time state).
  [[nodiscard]] const DeviceAgent& agent(std::size_t index) const {
    return arena_.agent(index);
  }

  /// Arena telemetry for benches: agents materialized so far, and the
  /// approximate physically resident bytes of agent state.
  [[nodiscard]] std::size_t agents_hydrated() const noexcept {
    return arena_.hydrated_count();
  }
  [[nodiscard]] std::size_t arena_resident_bytes() const noexcept {
    return arena_.resident_bytes();
  }

  /// Register an external component whose state rides inside engine
  /// snapshots (trace-file sinks, resilience reports). Save/restore follows
  /// registration order; the name is recorded in the snapshot and verified
  /// on resume, so a mismatched participant list fails loudly instead of
  /// silently misaligning the payload. Must be called before run(), and the
  /// same components must be registered in the same order before
  /// resume_from().
  void register_checkpointable(std::string name, ckpt::Checkpointable* component) {
    if (component == nullptr) {
      throw std::invalid_argument("sim::Engine::register_checkpointable: null");
    }
    checkpointables_.emplace_back(std::move(name), component);
  }

  /// Restore engine state from a snapshot written by a previous process.
  /// Call after add_fleet() rebuilt the identical fleet (same world seed,
  /// engine config and fleet composition — verified via a fingerprint) and
  /// after registering the same checkpointables. The subsequent run()
  /// continues from the snapshot point and produces output byte-identical
  /// to the uninterrupted remainder, for threads=1 and threads=N alike.
  /// Throws ckpt::SnapshotError on any integrity or compatibility failure.
  void resume_from(const std::string& path);

  /// Run to the horizon, delivering records to the sinks. May be called
  /// once per engine; a second call throws std::logic_error (the queue and
  /// agent state are consumed by the first run, so a silent rerun would
  /// produce an empty — not repeated — output).
  ///
  /// Every sink receives every record in the threads=1 order. Sinks must be
  /// non-null and distinct, the probe included (std::invalid_argument
  /// otherwise, before anything runs), and must not share mutable state:
  /// with K > 1 shards every sink after the first is fed on its own relay
  /// thread, beside the others. A sink's exception leaves run() once every
  /// thread has stopped. When a relayed sink throws, the other sinks may
  /// already have received records past the one it failed on.
  void run(std::vector<RecordSink*> sinks);

  /// Total wake events processed by the last run.
  [[nodiscard]] std::uint64_t wakes_processed() const noexcept { return wakes_; }

  /// Shards actually used by the last run.
  [[nodiscard]] std::size_t shards_used() const noexcept {
    return shard_wakes_.empty() ? 1 : shard_wakes_.size();
  }
  /// Wakes processed per shard by the last run (empty for threads=1).
  [[nodiscard]] const std::vector<std::uint64_t>& shard_wakes() const noexcept {
    return shard_wakes_;
  }
  /// Wall time of the global pop loop replaying shard logs, its waits for
  /// unpublished wakes and on full relay logs included (0 for threads=1,
  /// where nothing is logged). It overlaps window_wall_s(): the merge runs
  /// while the shards do.
  [[nodiscard]] double merge_wall_s() const noexcept { return merge_wall_s_; }

  /// True when the last run() returned early — graceful shutdown request
  /// or Config::ckpt.stop_after_sim_hours — rather than reaching the horizon.
  [[nodiscard]] bool interrupted() const noexcept { return interrupted_; }
  /// True when this engine was primed from a snapshot via resume_from().
  [[nodiscard]] bool resumed() const noexcept { return resumed_; }
  [[nodiscard]] const std::string& resumed_from() const noexcept {
    return resumed_from_;
  }
  /// Snapshots written by the last run (cadence boundaries + final).
  [[nodiscard]] std::uint64_t checkpoints_written() const noexcept {
    return checkpoints_written_;
  }
  /// Cumulative wall time spent serializing and writing snapshots.
  [[nodiscard]] double checkpoint_wall_s() const noexcept { return checkpoint_wall_s_; }

  /// The flight recorder, or null when Config::telemetry.trace_path is
  /// empty. Sinks and the checkpoint writer borrow it to add their own spans.
  [[nodiscard]] obs::FlightRecorder* flight_recorder() noexcept { return trace_.get(); }

  // --- shard-balance telemetry (tracing-enabled runs only; all zero when
  // --- the recorder is off, since deriving them costs clock reads) --------
  // The shard windows and the merge run at the same time, so these overlap
  // merge_wall_s() instead of adding to it.
  /// Wall seconds each shard spent stepping agents in its window loops,
  /// not counting waits on a full record log (empty for threads=1 or
  /// untraced runs).
  [[nodiscard]] const std::vector<double>& shard_busy_s() const noexcept {
    return shard_busy_s_;
  }
  /// Wall seconds from submitting the shard windows until the last shard
  /// finished, summed over windows.
  [[nodiscard]] double window_wall_s() const noexcept { return window_wall_s_; }
  /// Sum over windows of (busiest shard busy - idlest shard busy): how
  /// unevenly the work split across shards.
  [[nodiscard]] double merge_wait_skew_s() const noexcept { return merge_wait_skew_s_; }
  /// High-water mark of event-queue depth observed at sampling points.
  [[nodiscard]] std::uint64_t queue_depth_hwm() const noexcept { return queue_depth_hwm_; }

 private:
  struct Shard;

  /// K > 1 only, on a pool worker: run one shard's window up to `stop`,
  /// logging its records for the merge running meanwhile on the calling
  /// thread.
  void run_shard_window(Shard& shard, stats::SimTime stop);
  void finish_run_metrics();
  /// Rate-limited heartbeat write (no-op when no heartbeat is configured).
  void beat(const char* phase, stats::SimTime sim_now, bool force = false);
  /// Trace export + trace.* metric publication + final heartbeat. Runs after
  /// every snapshot write so registry snapshots never contain wall-clock-
  /// derived values.
  void finish_telemetry();

  /// Identity of (engine seed, horizon, fleet): a snapshot resumes only
  /// onto an identically rebuilt engine.
  [[nodiscard]] std::uint64_t fleet_fingerprint() const;
  /// Serialize full engine state resuming at `resume_time` and write it
  /// atomically to Config::ckpt.path (no-op when the path is empty).
  /// The metrics persisted are the main registry plus, with K > 1 shards,
  /// every shard's private delta so far.
  void write_checkpoint(stats::SimTime resume_time, const std::deque<Shard>& shards);

  const topology::World& world_;
  Config config_;
  NetworkSelector selector_;
  stats::Rng rng_;
  /// All agent state: cold catalog + dormant hot fields + lazily hydrated
  /// working slots (also records each agent's first wake, which the
  /// snapshot fingerprint covers).
  AgentArena arena_;
  /// The global queue: every pending wake in (time, seq) pop order, at any
  /// shard count. K > 1 shard queues are filled from it at run start.
  EventQueue queue_;
  std::uint64_t wakes_ = 0;
  std::vector<std::uint64_t> shard_wakes_;
  double merge_wall_s_ = 0.0;
  bool ran_ = false;

  // --- checkpoint/restore state --------------------------------------------
  std::vector<std::pair<std::string, ckpt::Checkpointable*>> checkpointables_;
  stats::SimTime resume_time_ = 0;   // window accounting restarts here
  stats::SimTime last_time_ = 0;     // time of the last processed event
  bool resumed_ = false;
  bool interrupted_ = false;
  std::string resumed_from_;
  std::uint64_t checkpoints_written_ = 0;
  double checkpoint_wall_s_ = 0.0;

  // --- flight recorder / heartbeat (null = disabled) -----------------------
  std::unique_ptr<obs::FlightRecorder> trace_;
  std::unique_ptr<obs::HeartbeatWriter> heartbeat_;
  std::vector<double> shard_busy_s_;
  double window_wall_s_ = 0.0;
  double merge_wait_skew_s_ = 0.0;
  std::uint64_t queue_depth_hwm_ = 0;
  /// Timing-wheel / arena telemetry collected at end of run (global queue
  /// plus shard queues; record-log bytes are the chunks held at the high-
  /// water mark, summed over the shard logs, relay logs not counted);
  /// published as quarantined trace.* gauges only.
  std::uint64_t wheel_rebases_ = 0;
  std::uint64_t record_buffer_peak_bytes_ = 0;
  stats::SimTime last_checkpoint_time_ = -1;
};

}  // namespace wtr::sim
