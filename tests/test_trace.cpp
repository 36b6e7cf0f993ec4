// Flight-recorder suite. Three layers:
//
//  * Unit: the single-writer TraceTrack ring (wrap keeps the newest events
//    and counts the overwritten ones as dropped), the Chrome trace-event
//    export (valid shape even when empty or overflowed), TraceSpan's
//    null-recorder and idempotent-close contracts, and the atomic
//    single-line heartbeat writer.
//
//  * Determinism: a traced engine run must produce the same record stream
//    (sim::StreamDigest), probe trajectory and (trace.*-filtered) metrics
//    dump as an untraced run, at threads=1 and threads=4 — the recorder
//    observes, never perturbs. The export itself must carry spans from
//    every shard plus merge and checkpoint events.
//
//  * Threading: shard threads open ScopedTimer spans against one shared
//    PhaseTimers concurrently (scripts/check.sh runs this suite under TSan,
//    so any race in the slot map or the recorder's barrier-quiesced rings
//    fails the gate), and EngineProbe trajectories survive checkpoint/
//    resume byte-identically — including a resume in the middle of a retry
//    storm with congestion state live.

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "faults/congestion.hpp"
#include "obs/heartbeat.hpp"
#include "obs/observability.hpp"
#include "obs/trace.hpp"
#include "sim/stream_digest.hpp"
#include "tracegen/mno_scenario.hpp"
#include "tracegen/storm_scenario.hpp"

#include "digest_checks.hpp"
#include "run_dumps.hpp"

namespace wtr {
namespace {

namespace fs = std::filesystem;

// --- shared plumbing --------------------------------------------------------

std::string read_file(const std::string& path) {
  std::ifstream in{path, std::ios::binary};
  return std::string{std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>()};
}

std::string temp_path(const std::string& name) {
  return (fs::temp_directory_path() / name).string();
}

std::size_t count_occurrences(const std::string& haystack, const std::string& needle) {
  std::size_t count = 0;
  for (auto pos = haystack.find(needle); pos != std::string::npos;
       pos = haystack.find(needle, pos + needle.size())) {
    ++count;
  }
  return count;
}

// --- TraceTrack ring --------------------------------------------------------

TEST(TraceTrack, WrapKeepsNewestEventsAndCountsDropped) {
  obs::TraceTrack track{4};
  for (int i = 0; i < 10; ++i) {
    obs::TraceEvent event;
    event.name = "e";
    event.start_ns = i;
    event.dur_ns = 1;
    track.push(event);
  }
  EXPECT_EQ(track.recorded(), 10u);
  EXPECT_EQ(track.dropped(), 6u);
  const auto retained = track.ordered();
  ASSERT_EQ(retained.size(), 4u);
  // Oldest-first, and only the newest four survive the wrap.
  for (std::size_t i = 0; i < retained.size(); ++i) {
    EXPECT_EQ(retained[i].seq, 6u + i);
    EXPECT_EQ(retained[i].start_ns, static_cast<std::int64_t>(6 + i));
  }
}

TEST(TraceTrack, NoDropsBelowCapacity) {
  obs::TraceTrack track{8};
  for (int i = 0; i < 5; ++i) {
    obs::TraceEvent event;
    event.name = "e";
    track.push(event);
  }
  EXPECT_EQ(track.recorded(), 5u);
  EXPECT_EQ(track.dropped(), 0u);
  EXPECT_EQ(track.ordered().size(), 5u);
}

// --- FlightRecorder export --------------------------------------------------

TEST(FlightRecorder, EmptyExportIsWellFormed) {
  const obs::FlightRecorder recorder{2, 16};
  const auto json = recorder.to_chrome_json();
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"displayTimeUnit\""), std::string::npos);
  // The engine track's thread-name metadata is always present; empty shard
  // tracks are omitted entirely.
  EXPECT_NE(json.find("thread_name"), std::string::npos);
  EXPECT_NE(json.find("engine"), std::string::npos);
  EXPECT_EQ(json.find("shard_0"), std::string::npos);
  EXPECT_EQ(recorder.events_recorded(), 0u);
  EXPECT_EQ(recorder.events_dropped(), 0u);
}

TEST(FlightRecorder, ExportCarriesSpansInstantsArgsAndTracks) {
  obs::FlightRecorder recorder{2, 16};
  recorder.complete(obs::FlightRecorder::kEngineTrack, obs::TraceCat::kMerge,
                    "merge", 1'000, 2'000, "wakes", 42);
  recorder.instant(obs::FlightRecorder::shard_track(0), obs::TraceCat::kShard,
                   "wake_batch", "queue_depth", 7);
  EXPECT_EQ(recorder.events_recorded(), 2u);

  const auto json = recorder.to_chrome_json();
  EXPECT_NE(json.find("\"name\":\"merge\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"wake_batch\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"i\""), std::string::npos);
  EXPECT_NE(json.find("\"wakes\":42"), std::string::npos);
  EXPECT_NE(json.find("\"queue_depth\":7"), std::string::npos);
  EXPECT_NE(json.find("shard_0"), std::string::npos);
  // The untouched shard 1 track leaves no ghost.
  EXPECT_EQ(json.find("shard_1"), std::string::npos);
  // Categories come out as their names.
  EXPECT_NE(json.find(obs::trace_cat_name(obs::TraceCat::kMerge)), std::string::npos);
}

TEST(FlightRecorder, OverflowedExportStaysWellFormed) {
  obs::FlightRecorder recorder{1, 2};
  for (int i = 0; i < 9; ++i) {
    recorder.instant(obs::FlightRecorder::kEngineTrack, obs::TraceCat::kEngine, "tick");
  }
  EXPECT_EQ(recorder.events_recorded(), 9u);
  EXPECT_EQ(recorder.events_dropped(), 7u);
  const auto json = recorder.to_chrome_json();
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_EQ(count_occurrences(json, "\"name\":\"tick\""), 2u);
}

TEST(FlightRecorder, WriteCreatesFileAndSurvivesBadPath) {
  obs::FlightRecorder recorder{1, 8};
  recorder.instant(obs::FlightRecorder::kEngineTrack, obs::TraceCat::kEngine, "tick");
  const auto path = temp_path("wtr_test_trace_write.json");
  ASSERT_TRUE(recorder.write(path));
  const auto body = read_file(path);
  EXPECT_NE(body.find("\"traceEvents\""), std::string::npos);
  fs::remove(path);
  // Tracing must never turn a finished run into an error: a bad path is a
  // warning and a false return, not a throw.
  EXPECT_FALSE(recorder.write("/nonexistent-dir/trace.json"));
}

TEST(TraceSpan, NullRecorderIsNoopAndCloseIsIdempotent) {
  {
    obs::TraceSpan span{nullptr, 0, obs::TraceCat::kEngine, "noop"};
    span.set_args("a", 1);
    span.close();  // must not crash
  }
  obs::FlightRecorder recorder{1, 8};
  {
    obs::TraceSpan span{&recorder, obs::FlightRecorder::kEngineTrack,
                        obs::TraceCat::kEngine, "once"};
    span.close();
    span.close();  // second close and the destructor must both no-op
  }
  EXPECT_EQ(recorder.events_recorded(), 1u);
}

// --- heartbeat writer -------------------------------------------------------

TEST(Heartbeat, WritesAtomicSingleLineJson) {
  const auto path = temp_path("wtr_test_heartbeat.json");
  obs::HeartbeatWriter writer{path, 0.0};
  obs::HeartbeatStatus status;
  status.phase = "run";
  status.sim_time_s = 3600.0;
  status.horizon_s = 7200.0;
  status.wakes = 10;
  status.records = 20;
  ASSERT_TRUE(writer.write_now(status));
  EXPECT_EQ(writer.beats_written(), 1u);

  const auto body = read_file(path);
  ASSERT_FALSE(body.empty());
  // Single line, rewritten in place via tmp + rename (no tmp residue).
  EXPECT_EQ(count_occurrences(body, "\n"), 1u);
  EXPECT_FALSE(fs::exists(path + ".tmp"));
  EXPECT_NE(body.find("\"phase\":\"run\""), std::string::npos);
  EXPECT_NE(body.find("\"progress\":0.5"), std::string::npos);
  EXPECT_NE(body.find("\"wakes\":10"), std::string::npos);
  EXPECT_NE(body.find("\"last_checkpoint_s\":-1"), std::string::npos);
  fs::remove(path);
}

TEST(Heartbeat, MaybeWriteRateLimits) {
  const auto path = temp_path("wtr_test_heartbeat_rl.json");
  obs::HeartbeatWriter writer{path, 3600.0};
  obs::HeartbeatStatus status;
  EXPECT_TRUE(writer.maybe_write(status));
  EXPECT_FALSE(writer.maybe_write(status));  // inside the interval: dropped
  EXPECT_TRUE(writer.write_now(status));     // write_now ignores the limit
  EXPECT_EQ(writer.beats_written(), 2u);
  fs::remove(path);
}

// --- engine integration: tracing never perturbs -----------------------------


struct MnoCapture {
  sim::StreamDigest stream;
  std::string metrics;
  std::string probe;
};

MnoCapture run_mno(unsigned threads, const std::string& trace_path,
                   std::size_t trace_capacity = std::size_t{1} << 15,
                   const std::string& heartbeat_path = {}) {
  obs::RunObservation observation;
  tracegen::MnoScenarioConfig config;
  config.seed = 42;
  config.total_devices = 300;
  config.threads = threads;
  config.build_coverage = false;
  config.obs = observation.view();
  config.telemetry.trace_path = trace_path;
  config.telemetry.trace_capacity_per_track = trace_capacity;
  config.telemetry.heartbeat_path = heartbeat_path;
  config.telemetry.heartbeat_every_wall_s = 0.0;
  tracegen::MnoScenario scenario{config};
  MnoCapture cap;
  scenario.run({&cap.stream});
  cap.metrics = dump_metrics(observation.metrics());
  cap.probe = dump_probe(observation.probe());
  return cap;
}

TEST(TracedEngine, TraceOnOffByteIdenticalAcrossThreads) {
  const auto golden = run_mno(1, "");
  expect_families(golden.stream);
  for (const unsigned threads : {1u, 4u}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    const auto path =
        temp_path("wtr_test_trace_identity_" + std::to_string(threads) + ".json");
    const auto traced = run_mno(threads, path);
    EXPECT_EQ(golden.stream, traced.stream);
    EXPECT_EQ(golden.metrics, traced.metrics);
    EXPECT_EQ(golden.probe, traced.probe);
    // The side file actually landed and is a trace-event document.
    const auto json = read_file(path);
    ASSERT_FALSE(json.empty());
    EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
    fs::remove(path);
  }
}

TEST(TracedEngine, ExportCarriesShardMergeAndWindowSpans) {
  const auto path = temp_path("wtr_test_trace_spans.json");
  run_mno(4, path);
  const auto json = read_file(path);
  ASSERT_FALSE(json.empty());
  // Every shard contributed a track...
  for (int s = 0; s < 4; ++s) {
    EXPECT_NE(json.find("shard_" + std::to_string(s)), std::string::npos);
  }
  // ...and the engine track carries the fan-out/merge structure.
  EXPECT_NE(json.find("\"name\":\"shard_window\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"shard_fanout\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"merge\""), std::string::npos);
  fs::remove(path);
}

TEST(TracedEngine, CheckpointSpansAppearInExport) {
  const auto dir = temp_path("wtr_test_trace_ckpt");
  fs::create_directories(dir);
  obs::RunObservation observation;
  tracegen::MnoScenarioConfig config;
  config.seed = 42;
  config.total_devices = 200;
  config.build_coverage = false;
  config.obs = observation.view();
  config.ckpt.every_sim_hours = 48;
  config.ckpt.path = dir + "/ckpt.bin";
  config.telemetry.trace_path = dir + "/trace.json";
  tracegen::MnoScenario scenario{config};
  sim::StreamDigest sink;
  scenario.engine().register_checkpointable("stream", &sink);
  scenario.run({&sink});
  ASSERT_GT(scenario.engine().checkpoints_written(), 0u);
  const auto json = read_file(dir + "/trace.json");
  EXPECT_NE(json.find("\"name\":\"ckpt_serialize\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"ckpt_write\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"ckpt_fsync\""), std::string::npos);
  fs::remove_all(dir);
}

TEST(TracedEngine, TinyRingOverflowsGracefully) {
  const auto dir = temp_path("wtr_test_trace_tiny");
  fs::create_directories(dir);
  const auto path = dir + "/trace.json";
  obs::RunObservation observation;
  tracegen::MnoScenarioConfig config;
  config.seed = 42;
  config.total_devices = 300;
  config.threads = 2;
  config.build_coverage = false;
  config.obs = observation.view();
  config.telemetry.trace_path = path;
  config.telemetry.trace_capacity_per_track = 4;
  // A 6h checkpoint cadence forces ~88 window barriers over the 22-day
  // horizon, so every 4-slot ring wraps many times over.
  config.ckpt.every_sim_hours = 6;
  config.ckpt.path = dir + "/ckpt.bin";
  tracegen::MnoScenario scenario{config};
  sim::StreamDigest sink;
  scenario.engine().register_checkpointable("stream", &sink);
  scenario.run({&sink});
  auto* recorder = scenario.engine().flight_recorder();
  ASSERT_NE(recorder, nullptr);
  EXPECT_GT(recorder->events_dropped(), 0u);
  EXPECT_GT(recorder->events_recorded(), recorder->events_dropped());
  const auto json = read_file(path);
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  fs::remove_all(dir);
}

TEST(TracedEngine, HeartbeatLandsAndFinishesDone) {
  const auto trace = temp_path("wtr_test_trace_hb.json");
  const auto beat = temp_path("wtr_test_trace_hb_beat.json");
  run_mno(2, trace, std::size_t{1} << 15, beat);
  const auto body = read_file(beat);
  ASSERT_FALSE(body.empty());
  EXPECT_EQ(count_occurrences(body, "\n"), 1u);
  EXPECT_NE(body.find("\"phase\":\"done\""), std::string::npos);
  EXPECT_NE(body.find("\"progress\":1.0"), std::string::npos);
  fs::remove(trace);
  fs::remove(beat);
}

// --- PhaseTimers under shard-thread concurrency (TSan target) ---------------

TEST(PhaseTimersThreaded, ConcurrentSpansAccumulateExactCounts) {
  obs::PhaseTimers timers;
  // Open the racing phase names once from the main thread so the
  // first-insertion order is deterministic (the documented pattern).
  {
    obs::ScopedTimer outer{&timers, "shard_work"};
    obs::ScopedTimer inner{&timers, "inner"};
  }
  constexpr int kThreads = 4;
  constexpr int kIters = 200;
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&timers] {
      for (int i = 0; i < kIters; ++i) {
        obs::ScopedTimer outer{&timers, "shard_work"};
        obs::ScopedTimer inner{&timers, "inner"};
      }
    });
  }
  for (auto& worker : workers) worker.join();

  bool saw_outer = false;
  bool saw_inner = false;
  for (const auto& phase : timers.phases()) {
    if (phase.path == "shard_work") {
      saw_outer = true;
      EXPECT_EQ(phase.count, 1u + kThreads * kIters);
      EXPECT_EQ(phase.depth, 0);
    }
    if (phase.path == "shard_work/inner") {
      saw_inner = true;
      EXPECT_EQ(phase.count, 1u + kThreads * kIters);
      EXPECT_EQ(phase.depth, 1);
    }
  }
  EXPECT_TRUE(saw_outer);
  EXPECT_TRUE(saw_inner);
}

TEST(PhaseTimersThreaded, NestingStacksArePerThread) {
  obs::PhaseTimers timers;
  obs::ScopedTimer outer{&timers, "main_outer"};
  // A span opened on another thread must not nest under the main thread's
  // open span: each thread has its own ancestry.
  std::thread worker{[&timers] { obs::ScopedTimer span{&timers, "worker_span"}; }};
  worker.join();
  EXPECT_GT(timers.total_s("worker_span"), 0.0);
  EXPECT_EQ(timers.total_s("main_outer/worker_span"), 0.0);
}

// --- EngineProbe across checkpoint/resume -----------------------------------

TEST(ProbeResume, TrajectoryIdenticalAfterResume) {
  const auto config_for = [](obs::RunObservation& observation) {
    tracegen::MnoScenarioConfig config;
    config.seed = 42;
    config.total_devices = 300;
    config.build_coverage = false;
    config.obs = observation.view();
    return config;
  };
  // Golden uninterrupted run.
  sim::StreamDigest golden;
  std::string golden_probe;
  {
    obs::RunObservation observation;
    tracegen::MnoScenario scenario{config_for(observation)};
    scenario.engine().register_checkpointable("stream", &golden);
    scenario.run({&golden});
    golden_probe = dump_probe(observation.probe());
  }
  expect_families(golden);

  const auto dir = temp_path("wtr_test_probe_resume");
  fs::create_directories(dir);
  const std::string ckpt = dir + "/ckpt.bin";

  // Phase 1: deterministic interrupt at day 8.
  {
    obs::RunObservation observation;
    auto config = config_for(observation);
    config.ckpt.path = ckpt;
    config.ckpt.stop_after_sim_hours = 8 * 24;
    tracegen::MnoScenario scenario{config};
    sim::StreamDigest sink;
    scenario.engine().register_checkpointable("stream", &sink);
    scenario.run({&sink});
    ASSERT_TRUE(scenario.engine().interrupted());
    EXPECT_LT(sink.records(), golden.records());
  }

  // Phase 2: resume and run out. The digest continues from the snapshot, and
  // the stream and the probe trajectory (samples and totals) must equal the
  // uninterrupted run's exactly.
  obs::RunObservation observation;
  tracegen::MnoScenario scenario{config_for(observation)};
  sim::StreamDigest sink;
  scenario.engine().register_checkpointable("stream", &sink);
  scenario.resume_from(ckpt);
  scenario.run({&sink});
  EXPECT_EQ(sink, golden);
  EXPECT_EQ(dump_probe(observation.probe()), golden_probe);
  fs::remove_all(dir);
}

TEST(ProbeResume, TrajectoryIdenticalAfterMidStormResume) {
  // Same claim with congestion live: the interrupt lands at hour 9 — after
  // the FOTA campaign kicks off at hour 8 — so T3346 timers and a half-open
  // congestion bucket are part of the resumed state.
  auto storm_config = [](faults::CongestionModel* model) {
    tracegen::StormScenarioConfig config;
    config.seed = 77;
    config.meters = 240;
    config.trackers = 60;
    config.days = 1;
    config.checkin_jitter_s = 150.0;
    config.fota_start_s = 8 * 3600;
    config.fota_failure_p = 0.4;
    config.backoff.enabled = true;
    config.congestion = model;
    return config;
  };
  faults::CongestionConfig congestion;
  congestion.bucket_s = 60;
  std::size_t op_count = 0;
  {
    auto probe_config = storm_config(nullptr);
    probe_config.meters = 8;
    probe_config.trackers = 2;
    tracegen::StormScenario probe{probe_config};
    congestion.capacities = {{probe.observer_radio(), 48.0}};
    op_count = probe.operator_count();
  }

  sim::StreamDigest golden;
  std::string golden_probe;
  {
    obs::RunObservation observation;
    faults::CongestionModel model{congestion, op_count};
    auto config = storm_config(&model);
    config.obs = observation.view();
    tracegen::StormScenario scenario{config};
    scenario.engine().register_checkpointable("stream", &golden);
    scenario.run({&golden});
    golden_probe = dump_probe(observation.probe());
    const auto* rejects = observation.metrics().find_counter("signaling.result.Congestion");
    ASSERT_NE(rejects, nullptr);
    ASSERT_GT(rejects->value(), 0u);
  }
  expect_families(golden, /*dwell=*/false);

  const auto dir = temp_path("wtr_test_probe_storm_resume");
  fs::create_directories(dir);
  const std::string ckpt = dir + "/ckpt.bin";

  {
    obs::RunObservation observation;
    faults::CongestionModel model{congestion, op_count};
    auto config = storm_config(&model);
    config.obs = observation.view();
    config.ckpt.path = ckpt;
    config.ckpt.stop_after_sim_hours = 9;
    tracegen::StormScenario scenario{config};
    sim::StreamDigest sink;
    scenario.engine().register_checkpointable("stream", &sink);
    scenario.run({&sink});
    ASSERT_TRUE(scenario.engine().interrupted());
    ASSERT_GT(sink.records(), 0u);
    ASSERT_LT(sink.records(), golden.records());
  }

  obs::RunObservation observation;
  faults::CongestionModel model{congestion, op_count};
  auto config = storm_config(&model);
  config.obs = observation.view();
  tracegen::StormScenario scenario{config};
  sim::StreamDigest sink;
  scenario.engine().register_checkpointable("stream", &sink);
  scenario.resume_from(ckpt);
  EXPECT_TRUE(scenario.engine().resumed());
  scenario.run({&sink});
  EXPECT_EQ(sink, golden);
  EXPECT_EQ(dump_probe(observation.probe()), golden_probe);
  fs::remove_all(dir);
}

}  // namespace
}  // namespace wtr
