#include "sim/engine.hpp"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <deque>
#include <limits>
#include <optional>
#include <string>

#include "ckpt/shutdown.hpp"
#include "obs/engine_probe.hpp"
#include "obs/heartbeat.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "sim/record_buffer.hpp"
#include "util/thread_pool.hpp"

namespace wtr::sim {

namespace {

/// Wake cadences for flight-recorder instants and heartbeat refresh checks
/// in the global pop loop (power-of-two masks). 8192 wakes between trace
/// instants keeps a 32k-slot ring covering hundreds of millions of wakes.
constexpr std::uint64_t kTraceWakeMask = (1u << 13) - 1;
constexpr std::uint64_t kBeatWakeMask = (1u << 10) - 1;

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

}  // namespace

/// Everything one shard owns: its outcome policy and congestion ledger,
/// and — with K > 1 shards — its event queue, its record log and a
/// private metrics registry, so shard windows never touch shared state.
struct Engine::Shard {
  /// `private_metrics` points the policy's counters at `metrics` (merged at
  /// checkpoints and at the end of the run) instead of the main registry.
  Shard(const Config& config, bool private_metrics)
      : ledger(config.congestion != nullptr ? config.congestion->op_count() : 0),
        outcomes(config.outcomes, config.faults,
                 private_metrics && config.metrics != nullptr ? &metrics : config.metrics,
                 config.congestion, config.congestion != nullptr ? &ledger : nullptr) {}

  EventQueue queue;
  RecordBuffer buffer;
  obs::MetricsRegistry metrics;
  /// Attach-attempt counts for the open congestion bucket; absorbed into
  /// the model at barriers.
  faults::CongestionLedger ledger;
  signaling::OutcomePolicy outcomes;
  std::uint64_t wakes = 0;

  /// Flight-recorder binding (null when tracing is off). The shard thread
  /// is the sole writer of `track`; barriers quiesce it before any read.
  obs::FlightRecorder* trace = nullptr;
  std::uint32_t track = 0;
  /// Wall seconds this shard spent stepping agents in its window loops, not
  /// counting waits on a full record log: cumulative and for the last
  /// window (the per-window spread feeds the skew metric).
  double busy_s = 0.0;
  double window_busy_s = 0.0;
  /// Recorder time at which the shard finished its last window.
  std::int64_t window_end_ns = 0;
  /// Largest shard-queue depth seen at window entry.
  std::uint64_t queue_hwm = 0;
};

namespace {

/// A caller sink after the first in a sharded run. The merge writes every
/// wake it replays into `log` (it is the log's producer here), and a pool
/// worker of the relay's own replays the log into `sink` in order.
struct Relay {
  explicit Relay(RecordSink* sink) : sink(sink) {}
  RecordBuffer log;
  RecordSink* sink;
};

/// A relay's window, on its pool worker: replay each wake the merge
/// publishes into the sink until the merge ends the window. A sink that
/// throws abandons the log, which stops the merge at its next wait on the
/// relay's bound (or at the barrier, whichever comes first); the pool
/// rethrows the sink's exception there.
void drain_relay(Relay& relay) {
  try {
    while (relay.log.wait_for_wake()) (void)relay.log.replay_wake(*relay.sink);
  } catch (...) {
    relay.log.abandon();
    throw;
  }
}

/// Publish the wake the merge just replayed to every relay, waiting at a
/// relay's bound the way a shard waits at its own. False when a relay's
/// sink failed.
bool end_relayed_wake(std::deque<Relay>& relays, stats::SimTime next_wake) {
  for (auto& relay : relays) {
    relay.log.end_wake(next_wake);
    if (relay.log.over_bound() && !relay.log.make_room()) return false;
  }
  return true;
}

/// Release every task of a window the merge gave up on: shards waiting on a
/// full log return at once, relays once they have replayed what the merge
/// published before.
template <typename Shards>
void release_window(Shards& shards, std::deque<Relay>& relays) noexcept {
  for (auto& shard : shards) shard.buffer.abandon();
  for (auto& relay : relays) relay.log.close_failed();
}

/// The merge's step for a wake of `agent` from shard `s`: wait until the
/// shard has published it, check it is `agent`'s, replay its records into
/// `out` and return the agent's next wake (RecordBuffer::kNoNextWake when it
/// has none). Nullopt when the shard failed instead; the pool rethrows its
/// error at the barrier.
std::optional<stats::SimTime> replay_logged_wake(RecordBuffer& log, std::size_t s,
                                                 AgentIndex agent, RecordSink& out) {
  if (!log.wait_for_wake()) {
    if (log.failed()) return std::nullopt;
    throw std::logic_error("sim::Engine::run: shard " + std::to_string(s) +
                           " finished its window without a wake for agent " +
                           std::to_string(agent));
  }
  if (const AgentIndex logged = log.peek_agent(); logged != agent) {
    throw std::logic_error("sim::Engine::run: shard " + std::to_string(s) +
                           " published a wake of agent " + std::to_string(logged) +
                           " where the merge popped agent " + std::to_string(agent));
  }
  return log.replay_wake(out);
}

}  // namespace

Engine::Engine(const topology::World& world, Config config)
    : world_(world), config_(config), selector_(world), rng_(config.seed) {
  // The recorder exists from construction so sinks registered before run()
  // can borrow it. One track per configured thread plus the engine track;
  // shard clamping just leaves trailing tracks empty (skipped at export).
  if (!config_.telemetry.trace_path.empty()) {
    trace_ = std::make_unique<obs::FlightRecorder>(
        std::max(1u, config_.threads),
        config_.telemetry.trace_capacity_per_track);
  }
  if (!config_.telemetry.heartbeat_path.empty()) {
    heartbeat_ = std::make_unique<obs::HeartbeatWriter>(
        config_.telemetry.heartbeat_path, config_.telemetry.heartbeat_every_wall_s);
  }
}

Engine::~Engine() = default;

void Engine::add_fleet(std::vector<devices::Device> fleet, AgentOptions options) {
  assert(!ran_);
  // Agent indices ride in every Event and snapshot as AgentIndex
  // (uint32_t); registering past that silently truncates indices into
  // aliases, so reject the whole fleet up front with a clear error.
  constexpr std::size_t kMaxAgents = std::numeric_limits<AgentIndex>::max();
  if (fleet.size() > kMaxAgents - arena_.size()) {
    throw std::length_error(
        "sim::Engine::add_fleet: fleet of " + std::to_string(fleet.size()) +
        " devices would push the agent count past the AgentIndex limit (" +
        std::to_string(kMaxAgents) + "); current count is " +
        std::to_string(arena_.size()));
  }
  // Geometric-floor reservation: the old per-fleet exact reserve here
  // reallocated (and copied) the whole agent store on every add_fleet call.
  arena_.reserve_additional(fleet.size());
  queue_.reserve(arena_.size() + fleet.size());
  const std::uint32_t options_id = arena_.intern_options(std::move(options));
  for (auto& device : fleet) {
    // Clamp the device's window to the engine horizon.
    device.departure_day = std::min(device.departure_day, config_.horizon_days);
    // Same per-device RNG discipline as the historical eager path: the fork
    // tag counts *kept* agents, and empty-window devices draw nothing.
    const auto first = arena_.register_device(std::move(device), options_id,
                                              rng_.fork(arena_.size() + 1));
    if (first) {
      queue_.schedule(*first, static_cast<AgentIndex>(arena_.size() - 1));
    }
  }
  // Every registered agent holds exactly one scheduled event until the run
  // consumes the queue — the invariant the old reserve math approximated.
  assert(queue_.size() == arena_.size());
}

std::uint64_t Engine::fleet_fingerprint() const {
  std::uint64_t h = stats::mix64(config_.seed, 0xc4e9'0000u);
  h = stats::mix64(h, static_cast<std::uint64_t>(config_.horizon_days));
  h = stats::mix64(h, arena_.size());
  for (std::size_t i = 0; i < arena_.size(); ++i) {
    h = stats::mix64(h, arena_.device(i).id);
    h = stats::mix64(h, static_cast<std::uint64_t>(arena_.first_wake(i)));
  }
  return h;
}

void Engine::beat(const char* phase, stats::SimTime sim_now, bool force) {
  if (heartbeat_ == nullptr) return;
  obs::HeartbeatStatus status;
  status.phase = phase;
  status.sim_time_s = static_cast<double>(sim_now);
  status.horizon_s = static_cast<double>(stats::day_start(config_.horizon_days));
  status.wakes = wakes_;
  status.records = config_.probe != nullptr ? config_.probe->records_total() : 0;
  status.last_checkpoint_s = static_cast<double>(last_checkpoint_time_);
  status.checkpoints_written = checkpoints_written_;
  if (force) {
    heartbeat_->write_now(status);
  } else {
    heartbeat_->maybe_write(status);
  }
}

void Engine::write_checkpoint(stats::SimTime resume_time,
                              const std::deque<Shard>& shards) {
  if (config_.ckpt.path.empty()) return;
  const auto start = Clock::now();

  // write_checkpoint always runs on the calling thread, so its spans land
  // on the engine track.
  obs::TraceSpan serialize_span(trace_.get(), obs::FlightRecorder::kEngineTrack,
                                obs::TraceCat::kCheckpoint, "ckpt_serialize");
  serialize_span.set_args("sim_time", resume_time);

  util::BinWriter payload;
  payload.u64(fleet_fingerprint());
  payload.i64(resume_time);
  payload.u64(wakes_);
  payload.i64(last_time_);

  // Pending events in exact global pop order: resume reschedules them in
  // this order into a fresh queue, reproducing the relative (time, seq)
  // ordering against everything scheduled after the snapshot point.
  const auto events = queue_.snapshot_events();
  payload.u64(events.size());
  for (const auto& event : events) {
    payload.i64(event.time);
    payload.u32(event.agent);
  }

  payload.u64(arena_.size());
  arena_.save_state(payload);

  // Persist the registry a single-shard run would hold at this point.
  const obs::MetricsRegistry* metrics = config_.metrics;
  obs::MetricsRegistry merged;
  if (metrics != nullptr && shards.size() > 1) {
    merged = *metrics;
    for (const auto& shard : shards) merged.merge_from(shard.metrics);
    metrics = &merged;
  }
  payload.b(metrics != nullptr);
  if (metrics != nullptr) metrics->save_state(payload);

  payload.b(config_.probe != nullptr);
  if (config_.probe != nullptr) config_.probe->save_state(payload);

  payload.b(config_.congestion != nullptr);
  if (config_.congestion != nullptr) config_.congestion->save_state(payload);

  payload.u64(checkpointables_.size());
  for (const auto& [name, component] : checkpointables_) {
    payload.str(name);
    util::BinWriter section;
    component->save_state(section);
    payload.str(section.bytes());
  }

  serialize_span.close();
  ckpt::write_snapshot_atomic(config_.ckpt.path, payload.bytes(),
                              trace_.get(), obs::FlightRecorder::kEngineTrack);
  ++checkpoints_written_;
  last_checkpoint_time_ = resume_time;
  checkpoint_wall_s_ += seconds_since(start);
  beat("checkpoint", resume_time);
}

void Engine::resume_from(const std::string& path) {
  if (ran_) {
    throw std::logic_error("sim::Engine::resume_from: engine already ran");
  }
  const std::string snapshot = ckpt::read_snapshot(path);
  util::BinReader in(snapshot);

  const auto fingerprint = in.u64();
  if (fingerprint != fleet_fingerprint()) {
    throw ckpt::SnapshotError(
        path +
        ": snapshot fleet/config fingerprint mismatch — the engine must be "
        "rebuilt with the identical seed, horizon and fleet before resuming");
  }
  resume_time_ = in.i64();
  wakes_ = in.u64();
  last_time_ = in.i64();

  // The snapshot's pending events, in global pop order, replace the
  // add_fleet initial schedule.
  EventQueue queue;
  const auto n_events = in.u64();
  if (n_events > arena_.size()) {
    throw ckpt::SnapshotError(path + ": snapshot holds " + std::to_string(n_events) +
                              " pending events for " + std::to_string(arena_.size()) +
                              " agents (at most one each)");
  }
  queue.reserve(n_events);
  for (std::uint64_t i = 0; i < n_events; ++i) {
    const auto time = in.i64();
    const auto agent = in.u32();
    if (agent >= arena_.size()) {
      throw ckpt::SnapshotError(path + ": snapshot references agent index " +
                                std::to_string(agent) + " beyond fleet size " +
                                std::to_string(arena_.size()));
    }
    queue.schedule(time, agent);
  }

  const auto n_agents = in.u64();
  if (n_agents != arena_.size()) {
    throw ckpt::SnapshotError(
        path + ": snapshot holds " + std::to_string(n_agents) +
        " agents but the rebuilt engine has " + std::to_string(arena_.size()));
  }
  arena_.freeze();
  arena_.restore_state(in);

  const bool has_metrics = in.b();
  if (has_metrics != (config_.metrics != nullptr)) {
    throw ckpt::SnapshotError(
        path + ": snapshot and engine disagree on metrics instrumentation "
               "(both runs must enable or disable it together)");
  }
  if (has_metrics) config_.metrics->restore_state(in);

  const bool has_probe = in.b();
  if (has_probe != (config_.probe != nullptr)) {
    throw ckpt::SnapshotError(
        path + ": snapshot and engine disagree on probe instrumentation "
               "(both runs must enable or disable it together)");
  }
  if (has_probe) config_.probe->restore_state(in);

  const bool has_congestion = in.b();
  if (has_congestion != (config_.congestion != nullptr)) {
    throw ckpt::SnapshotError(
        path + ": snapshot and engine disagree on the congestion model "
               "(both runs must install or omit it together)");
  }
  if (has_congestion) config_.congestion->restore_state(in);

  const auto n_components = in.u64();
  if (n_components != checkpointables_.size()) {
    throw ckpt::SnapshotError(
        path + ": snapshot holds " + std::to_string(n_components) +
        " checkpointable components but " +
        std::to_string(checkpointables_.size()) + " are registered");
  }
  for (auto& [name, component] : checkpointables_) {
    const auto saved_name = in.str();
    if (saved_name != name) {
      throw ckpt::SnapshotError(path + ": checkpointable order mismatch: "
                                       "snapshot has '" +
                                saved_name + "' where '" + name +
                                "' is registered");
    }
    const auto section = in.str();
    util::BinReader section_in(section);
    component->restore_state(section_in);
    section_in.expect_exhausted("checkpointable '" + name + "'");
  }
  in.expect_exhausted("engine snapshot " + path);

  queue_ = std::move(queue);
  resumed_ = true;
  resumed_from_ = path;
}

void Engine::run(std::vector<RecordSink*> sinks) {
  if (ran_) {
    throw std::logic_error(
        "sim::Engine::run: engine already ran; build a new engine for a "
        "second run (the event queue is consumed)");
  }
  obs::EngineProbe* probe = config_.probe;
  // A sink reached twice would be called from two threads once relayed.
  for (std::size_t i = 0; i < sinks.size(); ++i) {
    if (sinks[i] == nullptr) {
      throw std::invalid_argument("sim::Engine::run: null RecordSink");
    }
    const auto before = sinks.begin() + static_cast<std::ptrdiff_t>(i);
    if (sinks[i] == probe || std::find(sinks.begin(), before, sinks[i]) != before) {
      throw std::invalid_argument("sim::Engine::run: sink " + std::to_string(i) +
                                  " is passed twice (or is the engine's probe)");
    }
  }
  ran_ = true;
  arena_.freeze();
  beat(resumed_ ? "resume" : "init", resumed_ ? resume_time_ : 0,
       /*force=*/true);

  const std::size_t shard_count = std::min<std::size_t>(
      std::max(1u, config_.threads), std::max<std::size_t>(1, arena_.size()));
  const bool sharded = shard_count > 1;

  // The merge replays into the first sink itself and relays the rest.
  std::deque<Relay> relays;  // never relocates: pool tasks hold addresses
  MultiSink fanout;
  for (std::size_t i = 0; i < sinks.size(); ++i) {
    if (sharded && i > 0) {
      fanout.add(&relays.emplace_back(sinks[i]).log);
    } else {
      fanout.add(sinks[i]);
    }
  }
  if (probe != nullptr) {
    fanout.add(probe);
    if (!resumed_) {
      probe->begin_run(config_.faults, queue_.size());
    } else {
      // The probe trajectory was restored from the snapshot; only the
      // borrowed schedule pointer needs re-binding in this process.
      probe->rebind_faults(config_.faults);
    }
  }

  std::deque<Shard> shards;  // never relocates: policies hold member addresses
  for (std::size_t s = 0; s < shard_count; ++s) {
    shards.emplace_back(config_, /*private_metrics=*/sharded);
    shards.back().trace = trace_.get();
    shards.back().track = obs::FlightRecorder::shard_track(s);
  }
  // Declared after `shards` and `relays`, so it joins its workers before
  // they go.
  std::optional<util::ThreadPool> pool;
  if (sharded) {
    // Each shard queue takes its agents' pending wakes in global pop order,
    // so two same-time wakes keep their global relative order inside a
    // shard — what lets the merge read each shard's log front to back.
    for (auto& shard : shards) shard.queue.reserve(queue_.size() / shard_count + 1);
    for (const Event& event : queue_.snapshot_events()) {
      shards[event.agent % shard_count].queue.schedule(event.time, event.agent);
    }
    // One worker per shard and per relay: a shard waiting on a full log
    // must never keep another from starting, or the merge could wait on
    // that one forever, and the merge waiting on a full relay log needs
    // that relay draining.
    pool.emplace(shard_count + relays.size());
  }

  AgentContext ctx;
  ctx.world = &world_;
  ctx.selector = &selector_;
  ctx.outcomes = &shards.front().outcomes;
  ctx.sink = &fanout;

  const stats::SimTime horizon_end = stats::day_start(config_.horizon_days);
  const stats::SimTime cadence_s =
      config_.ckpt.every_sim_hours > 0
          ? config_.ckpt.every_sim_hours * stats::kSecondsPerHour
          : 0;
  stats::SimTime stop_time = -1;
  if (config_.ckpt.stop_after_sim_hours > 0) {
    const stats::SimTime t =
        config_.ckpt.stop_after_sim_hours * stats::kSecondsPerHour;
    if (t < horizon_end) stop_time = t;
  }
  faults::CongestionModel* congestion = config_.congestion;
  const stats::SimTime bucket_s =
      congestion != nullptr ? congestion->config().bucket_s : 0;
  // The shutdown rule (ckpt/shutdown.hpp): only a single shard stepping
  // agents in global pop order, with no congestion bucket open mid-window,
  // can stop between two wakes; everything else stops at the next barrier.
  const bool stop_between_wakes = !sharded && congestion == nullptr;

  obs::FlightRecorder* rec = trace_.get();
  constexpr std::uint32_t kTrack = obs::FlightRecorder::kEngineTrack;
  const bool beating = heartbeat_ != nullptr;

  stats::SimTime window_start = resumed_ ? resume_time_ : 0;
  while (true) {
    // --- Window planner ----------------------------------------------------
    stats::SimTime stop = horizon_end;
    if (cadence_s > 0) {
      stop = std::min(stop, (window_start / cadence_s + 1) * cadence_s);
    }
    if (bucket_s > 0) {
      stop = std::min(stop, (window_start / bucket_s + 1) * bucket_s);
    }
    if (stop_time >= 0) stop = std::min(stop, stop_time);

    // --- Shard windows and the global pop loop -----------------------------
    // With K > 1 the shards run the window on the pool while the pop loop
    // merges their logs; the barrier waits for all of them. Each popped wake
    // waits until its shard has published it, replays the shard's logged
    // records and re-schedules the recorded next wake, which reproduces the
    // single-shard (time, seq) order without re-running any agent.
    obs::TraceSpan fanout_span(sharded ? rec : nullptr, kTrack, obs::TraceCat::kMerge,
                               "shard_fanout");
    const std::int64_t fanout_start_ns = sharded && rec != nullptr ? rec->now_ns() : 0;

    const auto loop_start = sharded ? Clock::now() : Clock::time_point{};
    obs::TraceSpan loop_span(rec, kTrack,
                             sharded ? obs::TraceCat::kMerge : obs::TraceCat::kEngine,
                             sharded ? "merge" : "window");
    const std::uint64_t window_wakes_before = wakes_;
    if (rec != nullptr && queue_.size() > queue_depth_hwm_) {
      queue_depth_hwm_ = queue_.size();
    }
    bool shutdown_hit = false;
    bool window_failed = false;
    try {
      if (sharded) {
        for (auto& shard : shards) {
          shard.buffer.open_window();
          pool->submit([this, &shard, stop] {
            try {
              run_shard_window(shard, stop);
            } catch (...) {
              shard.buffer.close_failed();
              throw;
            }
          });
        }
        for (auto& relay : relays) {
          relay.log.open_window();
          pool->submit([&relay] { drain_relay(relay); });
        }
      }
      while (!queue_.empty() && *queue_.next_time() <= stop) {
        if (stop_between_wakes && ckpt::shutdown_requested()) {
          shutdown_hit = true;
          break;
        }
        const Event event = queue_.pop();
        ++wakes_;
        last_time_ = event.time;
        if (probe != nullptr && probe->due(event.time)) {
          // +1: the popped event is still in flight at the sample instant.
          probe->on_tick(event.time, queue_.size() + 1, wakes_);
        }
        if (rec != nullptr && (wakes_ & kTraceWakeMask) == 0) {
          rec->instant(kTrack, obs::TraceCat::kEngine, "wake_batch", "wakes",
                       static_cast<std::int64_t>(wakes_), "queue",
                       static_cast<std::int64_t>(queue_.size()));
          if (queue_.size() > queue_depth_hwm_) queue_depth_hwm_ = queue_.size();
        }
        if (beating && (wakes_ & kBeatWakeMask) == 0) {
          beat("run", event.time);
        }
        if (sharded) {
          const std::size_t s = event.agent % shard_count;
          for (auto& relay : relays) relay.log.begin_wake(event.agent);
          const auto next = replay_logged_wake(shards[s].buffer, s, event.agent, fanout);
          if (!next || !end_relayed_wake(relays, *next)) {
            window_failed = true;
            break;
          }
          if (*next != RecordBuffer::kNoNextWake) queue_.schedule(*next, event.agent);
        } else if (const auto next = arena_.agent(event.agent).on_wake(event.time, ctx)) {
          queue_.schedule(*next, event.agent);
        }
      }
    } catch (...) {
      // A sink or an invariant check threw on this thread: shards may be
      // waiting on full logs and relays on further wakes, so release them
      // and wait for every task before unwinding. The merge's exception is
      // the one rethrown, so a task's is dropped here.
      if (sharded) {
        release_window(shards, relays);
        try {
          pool->wait();
        } catch (...) {
        }
      }
      throw;
    }
    loop_span.set_args("wakes", static_cast<std::int64_t>(wakes_ - window_wakes_before),
                       "sim_stop", stop);
    loop_span.close();
    if (sharded) {
      merge_wall_s_ += seconds_since(loop_start);
      // A failed shard or relay stopped the merge early: release the other
      // tasks, then let the pool rethrow the failure.
      if (window_failed) {
        release_window(shards, relays);
      } else {
        for (auto& relay : relays) relay.log.finish_window();
      }
      pool->wait();
      if (window_failed) {
        throw std::logic_error("sim::Engine::run: a shard or relay stopped the window "
                               "without raising an error");
      }
      for (std::size_t s = 0; s < shard_count; ++s) {
        // Every wake a shard processed this window was replayed exactly once.
        const RecordBuffer& log = shards[s].buffer;
        if (log.consumed_wakes() != log.published_wakes()) {
          throw std::logic_error(
              "sim::Engine::run: shard " + std::to_string(s) + " published " +
              std::to_string(log.published_wakes()) + " wakes but the merge replayed " +
              std::to_string(log.consumed_wakes()));
        }
      }
      for (std::size_t r = 0; r < relays.size(); ++r) {
        // ... and every wake the merge relayed reached the relay's sink.
        const RecordBuffer& log = relays[r].log;
        if (log.consumed_wakes() != log.published_wakes()) {
          throw std::logic_error(
              "sim::Engine::run: the merge relayed " +
              std::to_string(log.published_wakes()) + " wakes to sink " +
              std::to_string(r + 1) + " but its relay replayed " +
              std::to_string(log.consumed_wakes()));
        }
      }
      if (rec != nullptr) {
        // The pool barrier just quiesced the workers, so their telemetry is
        // safe to read: the skew is how much longer the busiest shard worked
        // than the idlest this window, the window wall runs from the submit
        // to the last shard's finish.
        const auto [lo, hi] = std::minmax_element(
            shards.begin(), shards.end(), [](const Shard& a, const Shard& b) {
              return a.window_busy_s < b.window_busy_s;
            });
        merge_wait_skew_s_ += hi->window_busy_s - lo->window_busy_s;
        std::int64_t last_end_ns = fanout_start_ns;
        for (const auto& shard : shards) {
          last_end_ns = std::max(last_end_ns, shard.window_end_ns);
        }
        window_wall_s_ += static_cast<double>(last_end_ns - fanout_start_ns) * 1e-9;
      }
      fanout_span.set_args("sim_stop", stop);
      fanout_span.close();
    }

    // --- Barrier -----------------------------------------------------------
    // Fold the shard ledgers into the model and, on a bucket boundary, roll
    // the reject probabilities for the next bucket. Shard windows only ever
    // see an immutable model, and ledger addition is commutative, so the
    // fixed shard order cannot differ from the single-shard total.
    if (congestion != nullptr) {
      obs::TraceSpan absorb_span(rec, kTrack, obs::TraceCat::kCongestion,
                                 "congestion_absorb");
      for (auto& shard : shards) congestion->absorb(shard.ledger);
      absorb_span.set_args(
          "pending", static_cast<std::int64_t>(congestion->pending_attempts()),
          "sim_stop", stop);
      if (stop % bucket_s == 0) congestion->roll_to(stop);
    }
    // A window that reaches the horizon completes the run, whatever was
    // requested meanwhile.
    if (shutdown_hit || stop == stop_time ||
        (stop < horizon_end && ckpt::shutdown_requested())) {
      interrupted_ = true;
      // A between-wakes stop resumes at the last processed event, which
      // replans the same next boundary this process was heading for.
      write_checkpoint(shutdown_hit ? last_time_ : stop, shards);
      break;
    }
    if (stop >= horizon_end) break;
    // Congestion bucket boundaries subdivide cadence windows; only cadence
    // multiples get a snapshot.
    if (cadence_s > 0 && stop % cadence_s == 0) write_checkpoint(stop, shards);
    window_start = stop;
  }

  // --- End of run ------------------------------------------------------------
  if (!interrupted_) {
    // Drop the first beyond-horizon event before the final probe sample,
    // whose queue depth has always excluded it.
    if (!queue_.empty()) queue_.pop();
    if (probe != nullptr) probe->end_run(last_time_, queue_.size(), wakes_);
  }
  wheel_rebases_ = queue_.rebases();
  for (const auto& shard : shards) wheel_rebases_ += shard.queue.rebases();
  if (sharded) {
    shard_wakes_.resize(shard_count);
    for (std::size_t s = 0; s < shard_count; ++s) {
      shard_wakes_[s] = shards[s].wakes;
      record_buffer_peak_bytes_ += shards[s].buffer.resident_bytes();
      if (config_.metrics != nullptr) config_.metrics->merge_from(shards[s].metrics);
    }
    if (rec != nullptr) {
      shard_busy_s_.resize(shard_count);
      for (std::size_t s = 0; s < shard_count; ++s) {
        shard_busy_s_[s] = shards[s].busy_s;
        queue_depth_hwm_ = std::max(queue_depth_hwm_, shards[s].queue_hwm);
      }
    }
  }
  // An interrupted run withholds the run-summary metrics: the resumed
  // process emits them once at its own completion, so the resumed dump is
  // byte-identical to an uninterrupted run's (engine.runs stays 1).
  if (!interrupted_) finish_run_metrics();
  finish_telemetry();
}

void Engine::run_shard_window(Shard& shard, stats::SimTime stop) {
  AgentContext ctx;
  ctx.world = &world_;
  ctx.selector = &selector_;
  ctx.outcomes = &shard.outcomes;
  ctx.sink = &shard.buffer;

  // Shard-thread-side telemetry: this thread is the sole writer of
  // shard.track and of the shard's busy/end/hwm fields; the pool barrier
  // publishes them to the calling thread.
  const std::int64_t t0 = shard.trace != nullptr ? shard.trace->now_ns() : 0;
  const std::uint64_t wakes_before = shard.wakes;
  EventQueue& queue = shard.queue;
  if (shard.trace != nullptr && queue.size() > shard.queue_hwm) {
    shard.queue_hwm = queue.size();
  }

  RecordBuffer& log = shard.buffer;
  std::int64_t waited_ns = 0;
  while (!queue.empty() && *queue.next_time() <= stop) {
    const Event event = queue.pop();
    ++shard.wakes;
    // Shards partition agents by index, so hydration targets disjoint
    // arena slots — no synchronization needed.
    auto& agent = arena_.agent(event.agent);
    log.begin_wake(event.agent);
    const auto next = agent.on_wake(event.time, ctx);
    log.end_wake(next ? *next : RecordBuffer::kNoNextWake);
    if (next) queue.schedule(*next, event.agent);
    if (log.over_bound()) {
      // Too far ahead of the merge: wait at this wake boundary. False means
      // the merge gave up on the run.
      const std::int64_t w0 = shard.trace != nullptr ? shard.trace->now_ns() : 0;
      if (!log.make_room()) return;
      if (shard.trace != nullptr) waited_ns += shard.trace->now_ns() - w0;
    }
  }
  log.finish_window();

  if (shard.trace != nullptr) {
    const std::int64_t t1 = shard.trace->now_ns();
    shard.trace->complete(shard.track, obs::TraceCat::kShard, "shard_window",
                          t0, t1 - t0, "wakes",
                          static_cast<std::int64_t>(shard.wakes - wakes_before),
                          "sim_stop", stop);
    shard.window_busy_s = static_cast<double>(t1 - t0 - waited_ns) * 1e-9;
    shard.busy_s += shard.window_busy_s;
    shard.window_end_ns = t1;
  }
}

void Engine::finish_telemetry() {
  // Runs strictly after the last snapshot write of this process, so
  // wall-clock-derived trace.* values never enter a snapshot (or a resumed
  // registry) and cadence-off byte-compare harnesses stay exact.
  if (trace_ != nullptr && config_.metrics != nullptr) {
    auto& m = *config_.metrics;
    m.gauge("trace.events_recorded")
        .set(static_cast<double>(trace_->events_recorded()));
    m.gauge("trace.events_dropped")
        .set(static_cast<double>(trace_->events_dropped()));
    m.gauge("trace.queue_depth_hwm").set(static_cast<double>(queue_depth_hwm_));
    m.gauge("trace.merge_wait_skew_s").set(merge_wait_skew_s_);
    // Wheel/arena internals are thread-count-dependent (per-shard queues
    // rebase independently; record logs exist only when sharded), so they
    // live in the quarantined trace.* namespace like the other
    // wall-clock-adjacent values.
    m.gauge("trace.wheel_rebases").set(static_cast<double>(wheel_rebases_));
    m.gauge("trace.arena_resident_bytes")
        .set(static_cast<double>(arena_.resident_bytes()));
    m.gauge("trace.record_buffer_peak_bytes")
        .set(static_cast<double>(record_buffer_peak_bytes_));
    if (!shard_busy_s_.empty() && window_wall_s_ > 0.0) {
      const auto [lo, hi] =
          std::minmax_element(shard_busy_s_.begin(), shard_busy_s_.end());
      m.gauge("trace.shard_busy_frac_min").set(*lo / window_wall_s_);
      m.gauge("trace.shard_busy_frac_max").set(*hi / window_wall_s_);
    }
  }
  if (trace_ != nullptr) trace_->write(config_.telemetry.trace_path);
  beat(interrupted_ ? "interrupted" : "done", last_time_, /*force=*/true);
}

void Engine::finish_run_metrics() {
  if (config_.metrics == nullptr) return;
  config_.metrics->counter("engine.wakes").inc(wakes_);
  config_.metrics->counter("engine.runs").inc();
  config_.metrics->gauge("engine.agents").set_max(static_cast<double>(arena_.size()));
  // Thread-invariant: the set of agents that ever woke is fixed by the
  // schedule, not the shard count (a full run hydrates every agent; an
  // interrupted one defers this gauge to the resumed process, which ends
  // with the same hydration set an uninterrupted run would have).
  config_.metrics->gauge("engine.arena_hydrated")
      .set_max(static_cast<double>(arena_.hydrated_count()));
  config_.metrics->gauge("engine.horizon_days")
      .set(static_cast<double>(config_.horizon_days));
}

}  // namespace wtr::sim
