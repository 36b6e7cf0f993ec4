// Closed-loop overload model: the CongestionModel's reject curve, barrier
// semantics (absorb-order invariance, idempotent rolls), T3346 assignment,
// EAB thresholds and snapshot round-trips — then scenario-level guarantees
// on the StormScenario: threads=N byte-identity with the model installed,
// RNG-invisibility of the firmware flags while no model is installed, the
// mitigated/unmitigated A/B divergence, and deterministic checkpoint/resume
// through a storm window.

#include <gtest/gtest.h>

#include <filesystem>
#include <string>

#include "faults/congestion.hpp"
#include "faults/fault_schedule.hpp"
#include "faults/resilience_report.hpp"
#include "obs/observability.hpp"
#include "signaling/t3346.hpp"
#include "sim/stream_digest.hpp"
#include "stats/sim_time.hpp"
#include "tracegen/storm_scenario.hpp"
#include "util/binio.hpp"

#include "digest_checks.hpp"
#include "run_dumps.hpp"

namespace wtr {
namespace {

namespace fs = std::filesystem;

// --- CongestionModel unit tests ---------------------------------------------

faults::CongestionConfig unit_config(double capacity) {
  faults::CongestionConfig config;
  config.bucket_s = 60;
  config.default_capacity = capacity;
  return config;
}

/// Feed `attempts` on operator `op` through a ledger and close the bucket.
void load_bucket(faults::CongestionModel& model, topology::OperatorId op,
                 std::uint64_t attempts, stats::SimTime boundary) {
  faults::CongestionLedger ledger{model.op_count()};
  for (std::uint64_t i = 0; i < attempts; ++i) ledger.count_attempt(op);
  model.absorb(ledger);
  model.roll_to(boundary);
}

TEST(CongestionModel, RejectProbabilityFollowsLoadCurve) {
  faults::CongestionModel model{unit_config(100.0), 3};
  // Twice the capacity: f = 2, p = 1 - 1/2 at the default exponent of 1.
  load_bucket(model, 1, 200, 60);
  EXPECT_DOUBLE_EQ(model.overload_factor(1), 2.0);
  EXPECT_DOUBLE_EQ(model.reject_probability(1), 0.5);
  // Unloaded operators stay clean.
  EXPECT_DOUBLE_EQ(model.reject_probability(0), 0.0);
  EXPECT_DOUBLE_EQ(model.reject_probability(2), 0.0);
  EXPECT_EQ(model.congested_buckets(), 1u);
  EXPECT_EQ(model.first_congested_at(), 60);
}

TEST(CongestionModel, AtOrBelowCapacityNeverRejects) {
  faults::CongestionModel model{unit_config(100.0), 1};
  load_bucket(model, 0, 100, 60);  // exactly at capacity: f = 1, no rejects
  EXPECT_DOUBLE_EQ(model.reject_probability(0), 0.0);
  load_bucket(model, 0, 40, 120);
  EXPECT_DOUBLE_EQ(model.reject_probability(0), 0.0);
  EXPECT_EQ(model.congested_buckets(), 0u);
  EXPECT_EQ(model.first_congested_at(), -1);
}

TEST(CongestionModel, MaxRejectCapsTheCurve) {
  auto config = unit_config(1.0);
  config.max_reject = 0.9;
  faults::CongestionModel model{config, 1};
  load_bucket(model, 0, 1'000'000, 60);  // f = 1e6: curve would say ~1.0
  EXPECT_DOUBLE_EQ(model.reject_probability(0), 0.9);
  EXPECT_DOUBLE_EQ(model.peak_reject(), 0.9);
}

TEST(CongestionModel, OverloadExponentSharpensOnset) {
  auto config = unit_config(100.0);
  config.overload_exponent = 2.0;
  faults::CongestionModel model{config, 1};
  load_bucket(model, 0, 200, 60);  // f = 2: p = 1 - (1/2)^2
  EXPECT_DOUBLE_EQ(model.reject_probability(0), 0.75);
}

TEST(CongestionModel, UncongestibleByDefaultWithPerOperatorOptIn) {
  auto config = unit_config(0.0);  // default: infinite capacity
  config.capacities = {{1, 10.0}};
  faults::CongestionModel model{config, 2};
  faults::CongestionLedger ledger{2};
  for (int i = 0; i < 500; ++i) {
    ledger.count_attempt(0);
    ledger.count_attempt(1);
  }
  model.absorb(ledger);
  model.roll_to(60);
  EXPECT_DOUBLE_EQ(model.reject_probability(0), 0.0);  // opted out
  EXPECT_GT(model.reject_probability(1), 0.9);         // f = 50
}

TEST(CongestionModel, AssignedBackoffScalesWithOverloadAndClamps) {
  faults::CongestionModel model{unit_config(100.0), 1};
  // Not overloaded: the base value.
  EXPECT_DOUBLE_EQ(model.assigned_backoff_s(0), 900.0);
  load_bucket(model, 0, 200, 60);  // f = 2
  EXPECT_DOUBLE_EQ(model.assigned_backoff_s(0), 1800.0);
  load_bucket(model, 0, 100'000, 120);  // f = 1000: clamp at t3346_max_s
  EXPECT_DOUBLE_EQ(model.assigned_backoff_s(0), 3600.0);
}

TEST(CongestionModel, EabEngagesAtThresholdOnly) {
  auto config = unit_config(100.0);
  config.eab_threshold = 1.5;
  faults::CongestionModel model{config, 1};
  load_bucket(model, 0, 140, 60);  // f = 1.4: congested but below threshold
  EXPECT_GT(model.reject_probability(0), 0.0);
  EXPECT_FALSE(model.eab_active(0));
  load_bucket(model, 0, 160, 120);  // f = 1.6: barred
  EXPECT_TRUE(model.eab_active(0));
  load_bucket(model, 0, 10, 180);  // load gone: barring lifts
  EXPECT_FALSE(model.eab_active(0));
}

TEST(CongestionModel, EabDisabledByNonPositiveThreshold) {
  auto config = unit_config(1.0);
  config.eab_threshold = 0.0;
  faults::CongestionModel model{config, 1};
  load_bucket(model, 0, 1'000, 60);
  EXPECT_FALSE(model.eab_active(0));
}

TEST(CongestionModel, CapacityDropScalesEffectiveCapacity) {
  faults::FaultSchedule schedule;
  schedule.add_capacity_drop(0, 0, 600, 0.5);  // half the core, first 10 min
  faults::CongestionModel model{unit_config(100.0), 1, &schedule};
  // 100 attempts against 100 * 0.5 effective capacity: f = 2.
  load_bucket(model, 0, 100, 60);
  EXPECT_DOUBLE_EQ(model.overload_factor(0), 2.0);
  // After the episode the full capacity is back (bucket start 600 is past
  // the window end, which is exclusive).
  faults::CongestionModel late{unit_config(100.0), 1, &schedule};
  faults::CongestionLedger ledger{1};
  for (int i = 0; i < 100; ++i) ledger.count_attempt(0);
  late.absorb(ledger);
  late.roll_to(660);  // bucket [600, 660)
  EXPECT_DOUBLE_EQ(late.overload_factor(0), 1.0);
}

TEST(CongestionModel, AbsorbOrderIsInvariant) {
  faults::CongestionLedger a{2};
  faults::CongestionLedger b{2};
  for (int i = 0; i < 150; ++i) a.count_attempt(0);
  for (int i = 0; i < 70; ++i) b.count_attempt(0);
  b.count_barred(0);

  auto run = [](faults::CongestionLedger first, faults::CongestionLedger second) {
    faults::CongestionModel model{unit_config(100.0), 2};
    model.absorb(first);
    model.absorb(second);
    model.roll_to(60);
    return model;
  };
  const auto ab = run(a, b);
  const auto ba = run(b, a);
  EXPECT_DOUBLE_EQ(ab.reject_probability(0), ba.reject_probability(0));
  EXPECT_EQ(ab.total_attempts(), ba.total_attempts());
  EXPECT_EQ(ab.total_barred(), ba.total_barred());
  EXPECT_EQ(ab.total_attempts(), 220u);
  EXPECT_EQ(ab.total_barred(), 1u);
}

TEST(CongestionModel, AbsorbClearsTheLedger) {
  faults::CongestionModel model{unit_config(100.0), 1};
  faults::CongestionLedger ledger{1};
  ledger.count_attempt(0);
  ledger.count_barred(0);
  model.absorb(ledger);
  EXPECT_EQ(ledger.attempts()[0], 0u);
  EXPECT_EQ(ledger.barred(), 0u);
}

TEST(CongestionModel, RollsAreIdempotentPerBoundary) {
  faults::CongestionModel model{unit_config(100.0), 1};
  load_bucket(model, 0, 200, 60);
  const double p = model.reject_probability(0);
  ASSERT_GT(p, 0.0);
  // A replayed barrier at (or before) the last roll must be a no-op even
  // with pending counts absorbed in between — this is what makes resume
  // replay-safe.
  faults::CongestionLedger ledger{1};
  for (int i = 0; i < 500; ++i) ledger.count_attempt(0);
  model.absorb(ledger);
  model.roll_to(60);
  EXPECT_DOUBLE_EQ(model.reject_probability(0), p);
  model.roll_to(120);  // the *next* boundary closes the pending bucket
  EXPECT_DOUBLE_EQ(model.overload_factor(0), 5.0);
}

TEST(CongestionModel, SnapshotRoundTripsExactly) {
  faults::CongestionModel model{unit_config(100.0), 2};
  load_bucket(model, 0, 333, 60);
  load_bucket(model, 1, 170, 120);
  faults::CongestionLedger open{2};
  for (int i = 0; i < 12; ++i) open.count_attempt(1);
  model.absorb(open);  // leave an open bucket pending

  util::BinWriter out;
  model.save_state(out);
  faults::CongestionModel restored{unit_config(100.0), 2};
  util::BinReader in{out.bytes()};
  restored.restore_state(in);
  EXPECT_TRUE(in.exhausted());

  EXPECT_DOUBLE_EQ(restored.reject_probability(0), model.reject_probability(0));
  EXPECT_DOUBLE_EQ(restored.reject_probability(1), model.reject_probability(1));
  EXPECT_DOUBLE_EQ(restored.peak_overload(), model.peak_overload());
  EXPECT_EQ(restored.congested_buckets(), model.congested_buckets());
  EXPECT_EQ(restored.total_attempts(), model.total_attempts());
  EXPECT_EQ(restored.first_congested_at(), model.first_congested_at());
  // The open bucket travelled too: the next roll sees the 12 attempts.
  restored.roll_to(180);
  EXPECT_DOUBLE_EQ(restored.overload_factor(1), 0.12);
}

TEST(CongestionModel, SnapshotRejectsOperatorCountMismatch) {
  faults::CongestionModel model{unit_config(100.0), 2};
  util::BinWriter out;
  model.save_state(out);
  faults::CongestionModel other{unit_config(100.0), 3};
  util::BinReader in{out.bytes()};
  EXPECT_THROW(other.restore_state(in), std::runtime_error);
}

TEST(CongestionModel, RejectsNonPositiveBucket) {
  auto config = unit_config(100.0);
  config.bucket_s = 0;
  EXPECT_THROW((faults::CongestionModel{config, 1}), std::invalid_argument);
}

// --- T3346 timer -------------------------------------------------------------

TEST(T3346Timer, StartKeepsTheLaterExpiry) {
  signaling::T3346Timer timer;
  EXPECT_FALSE(timer.running(0));
  timer.start(1000);
  EXPECT_TRUE(timer.running(999));
  EXPECT_FALSE(timer.running(1000));  // expiry instant: free to retry
  timer.start(500);                   // an earlier assignment must not shorten
  EXPECT_EQ(timer.expiry(), 1000);
  timer.start(2000);
  EXPECT_EQ(timer.expiry(), 2000);
  timer.stop();
  EXPECT_FALSE(timer.running(0));
}

TEST(T3346Timer, StateRoundTrips) {
  signaling::T3346Timer timer;
  timer.start(123456);
  util::BinWriter out;
  timer.save_state(out);
  signaling::T3346Timer restored;
  util::BinReader in{out.bytes()};
  restored.restore_state(in);
  EXPECT_EQ(restored.expiry(), 123456);
  EXPECT_TRUE(in.exhausted());
}

// --- StormScenario determinism ----------------------------------------------

/// Counts kCongestion results on the signaling stream.
class CongestionRejects final : public sim::RecordSink {
 public:
  std::uint64_t count = 0;
  void on_signaling(const signaling::SignalingTransaction& txn, bool) override {
    if (txn.result == signaling::ResultCode::kCongestion) ++count;
  }
};

constexpr std::uint64_t kStormSeed = 77;

tracegen::StormScenarioConfig storm_config(unsigned threads,
                                           faults::CongestionModel* model,
                                           bool mitigated) {
  tracegen::StormScenarioConfig config;
  config.seed = kStormSeed;
  config.meters = 240;
  config.trackers = 60;
  config.days = 1;
  config.threads = threads;
  config.checkin_jitter_s = 150.0;
  config.fota_start_s = 8 * 3600;
  config.fota_failure_p = 0.4;
  config.backoff.enabled = true;
  config.congestion = model;
  config.honor_congestion_control = mitigated;
  config.eab_meters = mitigated;
  return config;
}

faults::CongestionConfig storm_congestion_config(
    const tracegen::StormScenario& probe) {
  faults::CongestionConfig config;
  config.bucket_s = 60;
  config.capacities = {{probe.observer_radio(), 48.0}};
  return config;
}

/// Throwaway tiny scenario: operator ids and count are world properties, so
/// an identically seeded world reads them without paying for a real fleet.
tracegen::StormScenario probe_scenario() {
  auto config = storm_config(1, nullptr, true);
  config.meters = 8;
  config.trackers = 2;
  return tracegen::StormScenario{config};
}

struct StormRun {
  sim::StreamDigest stream;
  std::uint64_t congestion_rejects = 0;
  std::string metrics;
  std::uint64_t attempts = 0;
  std::uint64_t barred = 0;
  std::uint64_t congested_buckets = 0;
  double peak_overload = 0.0;
  double peak_reject = 0.0;
};

StormRun run_storm(unsigned threads, bool mitigated,
                   const faults::CongestionConfig& congestion_config,
                   std::size_t op_count) {
  obs::RunObservation observation;
  faults::CongestionModel model{congestion_config, op_count, nullptr,
                                &observation.metrics()};
  auto config = storm_config(threads, &model, mitigated);
  config.obs = observation.view();
  tracegen::StormScenario scenario{config};
  StormRun run;
  CongestionRejects rejects;
  scenario.run({&run.stream, &rejects});
  run.congestion_rejects = rejects.count;
  run.metrics = dump_metrics(observation.metrics());
  run.attempts = model.total_attempts();
  run.barred = model.total_barred();
  run.congested_buckets = model.congested_buckets();
  run.peak_overload = model.peak_overload();
  run.peak_reject = model.peak_reject();
  return run;
}

TEST(StormScenario, CongestedRunIsByteIdenticalAcrossThreads) {
  const auto probe = probe_scenario();
  const auto congestion = storm_congestion_config(probe);
  const auto op_count = probe.operator_count();

  const auto base = run_storm(1, /*mitigated=*/true, congestion, op_count);
  expect_families(base.stream, /*dwell=*/false);
  // The storm must actually congest, or the test proves nothing about the
  // closed loop under sharding.
  ASSERT_GT(base.congested_buckets, 0u);
  for (const unsigned threads : {2u, 4u}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    const auto sharded = run_storm(threads, /*mitigated=*/true, congestion, op_count);
    EXPECT_EQ(base.stream, sharded.stream);
    EXPECT_EQ(base.metrics, sharded.metrics);
    EXPECT_EQ(base.attempts, sharded.attempts);
    EXPECT_EQ(base.barred, sharded.barred);
    EXPECT_EQ(base.congested_buckets, sharded.congested_buckets);
    EXPECT_DOUBLE_EQ(base.peak_overload, sharded.peak_overload);
    EXPECT_DOUBLE_EQ(base.peak_reject, sharded.peak_reject);
  }
}

TEST(StormScenario, FirmwareFlagsAreRngInvisibleWithoutModel) {
  // honor_congestion_control / eab_member must not consume randomness or
  // change behaviour while no CongestionModel is installed — the opt-in
  // contract that keeps every existing scenario byte-identical.
  auto run = [](bool mitigated) {
    tracegen::StormScenario scenario{storm_config(1, nullptr, mitigated)};
    sim::StreamDigest digest;
    CongestionRejects rejects;
    scenario.run({&digest, &rejects});
    EXPECT_EQ(rejects.count, 0u);
    return digest;
  };
  const auto honored = run(true);
  expect_families(honored, /*dwell=*/false);
  EXPECT_EQ(honored, run(false));
}

TEST(StormScenario, MitigationBoundsTheStorm) {
  const auto probe = probe_scenario();
  const auto congestion = storm_congestion_config(probe);
  const auto op_count = probe.operator_count();

  const auto mitigated = run_storm(1, true, congestion, op_count);
  const auto unmitigated = run_storm(1, false, congestion, op_count);
  ASSERT_NE(mitigated.stream, unmitigated.stream);

  // Congestion rejects reach the signaling stream as the kCongestion result.
  const auto rejects_mitigated = mitigated.congestion_rejects;
  const auto rejects_unmitigated = unmitigated.congestion_rejects;
  EXPECT_GT(rejects_unmitigated, 0u);
  // The death spiral: ignoring the backoff means more attach pressure and
  // more rejects; honoring T3346+EAB sheds and spreads the load.
  EXPECT_LT(rejects_mitigated, rejects_unmitigated);
  EXPECT_LT(mitigated.congested_buckets, unmitigated.congested_buckets);
  EXPECT_GE(mitigated.attempts, 1u);
  EXPECT_GT(unmitigated.attempts, mitigated.attempts);
  // EAB actually shed load in the mitigated arm, and the unmitigated arm
  // (no EAB membership) never barred anything.
  EXPECT_GT(mitigated.barred, 0u);
  EXPECT_EQ(unmitigated.barred, 0u);
}

TEST(StormScenario, CongestionRejectsLandInResilienceReport) {
  const auto probe = probe_scenario();
  const auto congestion = storm_congestion_config(probe);
  faults::CongestionModel model{congestion, probe.operator_count()};
  auto config = storm_config(1, &model, /*mitigated=*/false);
  tracegen::StormScenario scenario{config};
  static const faults::FaultSchedule kNoFaults{};
  faults::ResilienceReport report{scenario.world(), kNoFaults};
  CongestionRejects rejects;
  scenario.run({&report, &rejects});
  EXPECT_GT(report.summary().congestion_rejects(), 0u);
  EXPECT_EQ(report.summary().congestion_rejects(), rejects.count);
}

TEST(StormScenario, ResumeThroughStormWindowIsDeterministic) {
  const auto probe = probe_scenario();
  const auto congestion = storm_congestion_config(probe);
  const auto op_count = probe.operator_count();

  // Golden uninterrupted run (threads=1).
  sim::StreamDigest golden;
  {
    faults::CongestionModel model{congestion, op_count};
    tracegen::StormScenario scenario{storm_config(1, &model, true)};
    CongestionRejects rejects;
    scenario.run({&golden, &rejects});
    ASSERT_GT(rejects.count, 0u);
  }
  expect_families(golden, /*dwell=*/false);

  for (const unsigned threads : {1u, 2u}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    const auto dir = fs::temp_directory_path() /
                     ("wtr_storm_resume_" + std::to_string(threads));
    fs::create_directories(dir);
    const std::string ckpt = (dir / "ckpt.bin").string();

    // Phase 1: interrupt at hour 4 — in the middle of the second check-in
    // herd, with T3346 timers live and a half-open congestion bucket.
    {
      faults::CongestionModel model{congestion, op_count};
      auto config = storm_config(threads, &model, true);
      config.ckpt.path = ckpt;
      config.ckpt.stop_after_sim_hours = 4;
      tracegen::StormScenario scenario{config};
      sim::StreamDigest sink;
      scenario.engine().register_checkpointable("stream", &sink);
      scenario.run({&sink});
      ASSERT_TRUE(scenario.engine().interrupted());
      ASSERT_GT(sink.records(), 0u);
      ASSERT_LT(sink.records(), golden.records());
    }

    // Phase 2: identical construction (fresh model), restore the digest with
    // the engine, run out.
    faults::CongestionModel model{congestion, op_count};
    tracegen::StormScenario scenario{storm_config(threads, &model, true)};
    sim::StreamDigest sink;
    scenario.engine().register_checkpointable("stream", &sink);
    scenario.resume_from(ckpt);
    EXPECT_TRUE(scenario.engine().resumed());
    scenario.run({&sink});
    EXPECT_EQ(sink, golden);

    fs::remove_all(dir);
  }
}

TEST(StormScenario, ResumeRejectsMissingCongestionModel) {
  // A snapshot written with the model installed must refuse to restore into
  // an engine without one (and vice versa) — silently diverging streams are
  // the alternative.
  const auto probe = probe_scenario();
  const auto congestion = storm_congestion_config(probe);
  const auto dir = fs::temp_directory_path() / "wtr_storm_mismatch";
  fs::create_directories(dir);
  const std::string ckpt = (dir / "ckpt.bin").string();
  {
    faults::CongestionModel model{congestion, probe.operator_count()};
    auto config = storm_config(1, &model, true);
    config.ckpt.path = ckpt;
    config.ckpt.stop_after_sim_hours = 2;
    tracegen::StormScenario scenario{config};
    sim::StreamDigest sink;
    scenario.run({&sink});
    ASSERT_TRUE(scenario.engine().interrupted());
  }
  tracegen::StormScenario scenario{storm_config(1, nullptr, true)};
  EXPECT_THROW(scenario.resume_from(ckpt), ckpt::SnapshotError);
  fs::remove_all(dir);
}

}  // namespace
}  // namespace wtr
