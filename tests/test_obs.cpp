#include <gtest/gtest.h>

#include "obs/observability.hpp"
#include "obs/run_manifest.hpp"
#include "signaling/transaction.hpp"
#include "sim/stream_digest.hpp"
#include "tracegen/mno_scenario.hpp"

#include "digest_checks.hpp"

namespace wtr::obs {
namespace {

// --- MetricsRegistry -------------------------------------------------------

TEST(Metrics, CounterAccumulates) {
  MetricsRegistry registry;
  auto& c = registry.counter("events");
  EXPECT_EQ(c.value(), 0u);
  c.inc();
  c.inc(41);
  EXPECT_EQ(c.value(), 42u);
  // Same name resolves to the same instance (handle stability).
  EXPECT_EQ(&registry.counter("events"), &c);
  EXPECT_EQ(registry.counter("events").value(), 42u);
}

TEST(Metrics, GaugeSetAndSetMax) {
  MetricsRegistry registry;
  auto& g = registry.gauge("depth");
  g.set(7.0);
  EXPECT_DOUBLE_EQ(g.value(), 7.0);
  g.set_max(3.0);  // lower: ignored
  EXPECT_DOUBLE_EQ(g.value(), 7.0);
  g.set_max(11.0);
  EXPECT_DOUBLE_EQ(g.value(), 11.0);
  g.set(2.0);  // plain set always wins
  EXPECT_DOUBLE_EQ(g.value(), 2.0);
}

TEST(Metrics, HistogramBucketPlacement) {
  Histogram h{{1.0, 10.0, 100.0}};
  ASSERT_EQ(h.bucket_counts().size(), 4u);  // 3 bounds + overflow

  h.add(0.5);    // <= 1     -> bucket 0
  h.add(1.0);    // == bound -> bucket 0 (inclusive tops)
  h.add(5.0);    //          -> bucket 1
  h.add(100.0);  //          -> bucket 2
  h.add(1e6);    // above    -> overflow

  EXPECT_EQ(h.bucket_counts()[0], 2u);
  EXPECT_EQ(h.bucket_counts()[1], 1u);
  EXPECT_EQ(h.bucket_counts()[2], 1u);
  EXPECT_EQ(h.bucket_counts()[3], 1u);
  EXPECT_EQ(h.count(), 5u);
  EXPECT_DOUBLE_EQ(h.min(), 0.5);
  EXPECT_DOUBLE_EQ(h.max(), 1e6);
  EXPECT_DOUBLE_EQ(h.sum(), 0.5 + 1.0 + 5.0 + 100.0 + 1e6);
  EXPECT_DOUBLE_EQ(h.mean(), h.sum() / 5.0);
}

TEST(Metrics, EmptyHistogramIsWellDefined) {
  Histogram h{{1.0}};
  EXPECT_EQ(h.count(), 0u);
  EXPECT_DOUBLE_EQ(h.min(), 0.0);
  EXPECT_DOUBLE_EQ(h.max(), 0.0);
  EXPECT_DOUBLE_EQ(h.mean(), 0.0);
}

TEST(Metrics, HistogramBoundsFixedAtFirstCreation) {
  MetricsRegistry registry;
  auto& h = registry.histogram("lat", {1.0, 2.0});
  auto& again = registry.histogram("lat", {99.0});  // ignored bounds
  EXPECT_EQ(&h, &again);
  EXPECT_EQ(again.upper_bounds().size(), 2u);
}

TEST(Metrics, FindDoesNotCreate) {
  MetricsRegistry registry;
  EXPECT_EQ(registry.find_counter("nope"), nullptr);
  EXPECT_EQ(registry.find_gauge("nope"), nullptr);
  EXPECT_EQ(registry.find_histogram("nope"), nullptr);
  registry.counter("yes").inc();
  ASSERT_NE(registry.find_counter("yes"), nullptr);
  EXPECT_EQ(registry.find_counter("yes")->value(), 1u);
  EXPECT_EQ(registry.counters().size(), 1u);
}

TEST(Metrics, ExponentialBucketLadders) {
  const auto ladder = exponential_buckets(1.0, 10.0, 4);
  ASSERT_EQ(ladder.size(), 4u);
  EXPECT_DOUBLE_EQ(ladder[0], 1.0);
  EXPECT_DOUBLE_EQ(ladder[3], 1000.0);
  // The default ladders are ascending and non-empty.
  for (const auto& bounds : {latency_buckets_s(), size_buckets()}) {
    ASSERT_GE(bounds.size(), 2u);
    for (std::size_t i = 1; i < bounds.size(); ++i) EXPECT_GT(bounds[i], bounds[i - 1]);
  }
}

// --- ScopedTimer / PhaseTimers ---------------------------------------------

TEST(ScopedTimer, NestingBuildsSlashPaths) {
  PhaseTimers timers;
  {
    ScopedTimer outer{&timers, "outer"};
    {
      ScopedTimer inner{&timers, "inner"};
      EXPECT_GE(inner.elapsed_s(), 0.0);
    }
    { ScopedTimer inner{&timers, "inner"}; }  // second span, same path
  }
  const auto phases = timers.phases();
  ASSERT_EQ(phases.size(), 2u);
  // First-opened order: "outer" before "outer/inner".
  EXPECT_EQ(phases[0].path, "outer");
  EXPECT_EQ(phases[0].depth, 0);
  EXPECT_EQ(phases[0].count, 1u);
  EXPECT_EQ(phases[1].path, "outer/inner");
  EXPECT_EQ(phases[1].depth, 1);
  EXPECT_EQ(phases[1].count, 2u);
  // Inner wall time is contained in outer's.
  EXPECT_GE(timers.total_s("outer"), timers.total_s("outer/inner"));
  EXPECT_DOUBLE_EQ(timers.total_s("never-ran"), 0.0);
}

TEST(ScopedTimer, SequentialTopLevelSpansDoNotNest) {
  PhaseTimers timers;
  { ScopedTimer a{&timers, "a"}; }
  { ScopedTimer b{&timers, "b"}; }
  const auto phases = timers.phases();
  ASSERT_EQ(phases.size(), 2u);
  EXPECT_EQ(phases[0].path, "a");
  EXPECT_EQ(phases[1].path, "b");
  EXPECT_EQ(phases[1].depth, 0);
}

TEST(ScopedTimer, NullTimersIsNoOp) {
  ScopedTimer timer{nullptr, "ghost"};
  EXPECT_GE(timer.elapsed_s(), 0.0);  // still measures locally
}

// --- EngineProbe -----------------------------------------------------------

signaling::SignalingTransaction make_txn(stats::SimTime t, signaling::Procedure proc,
                                         signaling::ResultCode result) {
  signaling::SignalingTransaction txn;
  txn.device = 1;
  txn.time = t;
  txn.procedure = proc;
  txn.result = result;
  return txn;
}

TEST(EngineProbe, SamplesAtConfiguredCadence) {
  EngineProbe probe{EngineProbeConfig{.sample_every_s = 100}};
  probe.begin_run(nullptr, 10);
  EXPECT_TRUE(probe.due(0));  // first wake always samples
  probe.on_tick(0, 10, 1);
  EXPECT_FALSE(probe.due(50));
  EXPECT_TRUE(probe.due(100));
  probe.on_tick(120, 8, 2);  // late wake: sample carries the actual time
  EXPECT_FALSE(probe.due(199));
  EXPECT_TRUE(probe.due(200));
  probe.on_tick(200, 6, 3);
  probe.end_run(250, 0, 4);

  const auto& samples = probe.samples();
  ASSERT_EQ(samples.size(), 4u);
  EXPECT_EQ(samples[0].sim_time, 0);
  EXPECT_EQ(samples[1].sim_time, 120);
  EXPECT_EQ(samples[2].sim_time, 200);
  EXPECT_EQ(samples[3].sim_time, 250);  // end_run's closing sample
  EXPECT_EQ(samples[3].wakes, 4u);
  EXPECT_EQ(probe.queue_depth_max(), 10u);
  // After end_run the probe goes quiescent until the next begin_run.
  EXPECT_FALSE(probe.due(1'000'000));
}

TEST(EngineProbe, CountsRecordsAndAttachFailures) {
  EngineProbe probe;
  probe.begin_run(nullptr, 0);
  using enum signaling::Procedure;
  using enum signaling::ResultCode;
  probe.on_signaling(make_txn(10, kAttach, kOk), false);
  probe.on_signaling(make_txn(20, kAttach, kRoamingNotAllowed), false);
  probe.on_signaling(make_txn(30, kUpdateLocation, kNetworkFailure), false);
  probe.on_signaling(make_txn(40, kDetach, kNetworkFailure), false);  // not attach-family
  records::Cdr cdr;
  cdr.time = stats::day_start(1) + 5;
  probe.on_cdr(cdr);
  records::Xdr xdr;
  xdr.time = 50;
  probe.on_xdr(xdr);

  EXPECT_EQ(probe.records_total(), 6u);
  EXPECT_EQ(probe.signaling_total(), 4u);
  EXPECT_EQ(probe.attach_attempts(), 3u);
  EXPECT_EQ(probe.attach_failures(), 2u);
  EXPECT_DOUBLE_EQ(probe.attach_failure_rate(), 2.0 / 3.0);
  // Day 0 got 5 records, day 1 got the CDR.
  ASSERT_EQ(probe.records_per_day().size(), 2u);
  EXPECT_EQ(probe.records_per_day().at(0), 5u);
  EXPECT_EQ(probe.records_per_day().at(1), 1u);
  EXPECT_EQ(probe.records_per_day_max(), 5u);
}

// --- Determinism: instrumented vs bare run ---------------------------------

sim::StreamDigest run_capture(obs::RunObservation* observation) {
  tracegen::MnoScenarioConfig config;
  config.seed = 4242;
  config.total_devices = 400;
  config.days = 4;
  config.build_coverage = false;
  if (observation != nullptr) config.obs = observation->view();
  tracegen::MnoScenario scenario{config};
  sim::StreamDigest digest;
  scenario.run({&digest});
  return digest;
}

TEST(Observability, InstrumentedRunIsByteIdenticalToBareRun) {
  const auto bare = run_capture(nullptr);
  obs::RunObservation observation;
  const auto instrumented = run_capture(&observation);

  expect_families(bare);
  EXPECT_EQ(bare, instrumented);

  // ... and the instrumented run really was instrumented.
  EXPECT_GT(observation.probe().records_total(), 0u);
  EXPECT_GT(observation.probe().samples().size(), 2u);
  ASSERT_NE(observation.metrics().find_counter("engine.wakes"), nullptr);
  EXPECT_GT(observation.metrics().find_counter("engine.wakes")->value(), 0u);
  ASSERT_NE(observation.metrics().find_counter("signaling.evaluations"), nullptr);
  EXPECT_GT(observation.metrics().find_counter("signaling.evaluations")->value(), 0u);
  EXPECT_GT(observation.timers().total_s("engine/run"), 0.0);
  EXPECT_GT(observation.timers().total_s("scenario/world"), 0.0);
}

TEST(Observability, DefaultHandleIsDisabled) {
  Observability obs;
  EXPECT_FALSE(obs.enabled());
  RunObservation observation;
  EXPECT_TRUE(observation.view().enabled());
}

// --- RunManifest -----------------------------------------------------------

TEST(RunManifest, JsonContainsSchemaPhasesMetricsAndResults) {
  RunObservation observation;
  observation.metrics().counter("demo.count").inc(3);
  observation.metrics().gauge("demo.depth").set(4.5);
  observation.metrics().histogram("demo.hist", {1.0, 10.0}).add(2.0);
  { ScopedTimer t{&observation.timers(), "phase_a"}; }

  RunManifest manifest{"unit"};
  manifest.set_seed(7);
  manifest.set_scale(1234);
  manifest.set_git_describe("test-describe");
  observation.fill(manifest);
  manifest.add_result("share", 0.25);
  manifest.add_result("count", std::uint64_t{99});
  manifest.add_result("verdict", std::string{"PASS"});

  const std::string json = manifest.to_json();
  for (const char* needle :
       {"\"schema\": \"wtr-run-manifest/1\"", "\"name\": \"unit\"", "\"seed\": 7",
        "\"scale\": 1234", "\"git_describe\": \"test-describe\"", "\"phase_a\"",
        "\"demo.count\"", "\"demo.depth\"", "\"demo.hist\"", "\"share\": 0.25",
        "\"count\": 99", "\"verdict\": \"PASS\""}) {
    EXPECT_NE(json.find(needle), std::string::npos) << "missing " << needle;
  }

  const std::string csv = manifest.phases_csv();
  EXPECT_NE(csv.find("phase,wall_s,count,depth"), std::string::npos);
  EXPECT_NE(csv.find("phase_a"), std::string::npos);
}

}  // namespace
}  // namespace wtr::obs
