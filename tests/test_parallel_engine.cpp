// Sharded-engine determinism: Engine::Config::threads must never change a
// single output byte. Every test here digests the full record stream (every
// field of all four record families, sim::StreamDigest), dumps the metrics
// and the probe trajectory, and asserts exact equality between threads=1
// and threads∈{2,8} — across all three scenarios and under a non-empty
// FaultSchedule. Each run feeds two digests: with threads > 1 the first is
// fed on the merge thread and the second on a relay thread of its own, and
// both must see the threads=1 stream.
//
// Manifests are compared with timers detached: phase wall-times are the
// one inherently volatile manifest section (they measure the host, not the
// simulation), so "manifest byte-identity" means everything else —
// identity, results, metrics and probe blocks.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <unordered_map>

#include "core/catalog_builder.hpp"
#include "io/bintrace.hpp"
#include "obs/observability.hpp"
#include "obs/run_manifest.hpp"
#include "sim/record_buffer.hpp"
#include "sim/stream_digest.hpp"
#include "stats/sim_time.hpp"
#include "tracegen/m2m_platform_scenario.hpp"
#include "tracegen/mno_scenario.hpp"
#include "tracegen/smip_scenario.hpp"
#include "util/thread_pool.hpp"

#include "catalog_fingerprint.hpp"
#include "digest_checks.hpp"
#include "run_dumps.hpp"

namespace wtr {
namespace {

/// Everything a run produces, digested or dumped for exact comparison. The
/// manifest is built with metrics and probe attached but timers detached
/// (see file header) and a fixed git-describe so the comparison is
/// build-independent.
struct RunCapture {
  sim::StreamDigest stream;
  sim::StreamDigest relayed;  // the second sink: a relay's when sharded
  std::string metrics;
  std::string probe;
  std::string manifest;
  std::uint64_t wakes = 0;
  std::size_t shards = 0;
  std::uint64_t shard_wake_sum = 0;
};

template <typename Scenario>
RunCapture capture(Scenario& scenario, const obs::RunObservation& observation) {
  RunCapture cap;
  scenario.run({&cap.stream, &cap.relayed});
  cap.metrics = dump_metrics(observation.metrics());
  cap.probe = dump_probe(observation.probe());
  obs::RunManifest manifest{"parallel-test"};
  manifest.set_git_describe("fixed");
  manifest.attach_metrics(&observation.metrics());
  manifest.attach_probe(&observation.probe());
  manifest.add_result("records_total", observation.probe().records_total());
  cap.manifest = manifest.to_json();
  cap.wakes = scenario.engine().wakes_processed();
  cap.shards = scenario.engine().shards_used();
  for (const auto w : scenario.engine().shard_wakes()) cap.shard_wake_sum += w;
  return cap;
}

RunCapture run_mno(unsigned threads, const faults::FaultSchedule* faults = nullptr,
                   bool backoff = false) {
  obs::RunObservation observation;
  tracegen::MnoScenarioConfig config;
  config.seed = 42;
  config.total_devices = 600;
  config.threads = threads;
  config.build_coverage = false;
  config.faults = faults;
  config.backoff.enabled = backoff;
  config.obs = observation.view();
  tracegen::MnoScenario scenario{config};
  return capture(scenario, observation);
}

RunCapture run_platform(unsigned threads) {
  obs::RunObservation observation;
  tracegen::M2MPlatformConfig config;
  config.seed = 7;
  config.total_devices = 600;
  config.threads = threads;
  config.obs = observation.view();
  tracegen::M2MPlatformScenario scenario{config};
  return capture(scenario, observation);
}

RunCapture run_smip(unsigned threads) {
  obs::RunObservation observation;
  tracegen::SmipScenarioConfig config;
  config.seed = 9;
  config.total_devices = 400;
  config.threads = threads;
  // Default coverage stays on: SMIP exercises the dwell-record path, so the
  // stream comparison covers all four record families.
  config.obs = observation.view();
  tracegen::SmipScenario scenario{config};
  return capture(scenario, observation);
}


void expect_identical(const RunCapture& base, const RunCapture& sharded,
                      unsigned threads) {
  SCOPED_TRACE("threads=" + std::to_string(threads));
  EXPECT_EQ(base.stream, sharded.stream);
  EXPECT_EQ(base.stream, base.relayed);
  EXPECT_EQ(base.stream, sharded.relayed);
  EXPECT_EQ(base.metrics, sharded.metrics);
  EXPECT_EQ(base.probe, sharded.probe);
  EXPECT_EQ(base.manifest, sharded.manifest);
  EXPECT_EQ(base.wakes, sharded.wakes);
}

// --- scenario-level byte identity ------------------------------------------

TEST(ParallelEngine, MnoScenarioByteIdentical) {
  const auto base = run_mno(1);
  expect_families(base.stream);
  EXPECT_EQ(base.shards, 1u);
  for (const unsigned threads : {2u, 8u}) {
    const auto sharded = run_mno(threads);
    expect_identical(base, sharded, threads);
    EXPECT_EQ(sharded.shards, threads);
    EXPECT_EQ(sharded.shard_wake_sum, sharded.wakes);
  }
}

TEST(ParallelEngine, PlatformScenarioByteIdentical) {
  const auto base = run_platform(1);
  expect_families(base.stream);
  for (const unsigned threads : {2u, 8u}) {
    expect_identical(base, run_platform(threads), threads);
  }
}

TEST(ParallelEngine, SmipScenarioByteIdentical) {
  const auto base = run_smip(1);
  expect_families(base.stream);
  for (const unsigned threads : {2u, 8u}) {
    expect_identical(base, run_smip(threads), threads);
  }
}

TEST(ParallelEngine, FaultScheduleByteIdentical) {
  // Faults + mechanistic backoff stress the merge hardest: rejected attaches
  // reschedule on backoff timers, so wake patterns are irregular.
  constexpr stats::SimTime kHour = 3600;
  auto make_schedule = [&](const tracegen::MnoScenario& scenario,
                           faults::FaultSchedule& schedule) {
    const auto& wk = scenario.world().well_known();
    schedule.add_outage(wk.uk_mno, stats::day_start(3) + 8 * kHour,
                        stats::day_start(3) + 14 * kHour, 1.0);
    schedule.add_storm(wk.uk_mno, stats::day_start(5) + 10 * kHour,
                       stats::day_start(5) + 16 * kHour, 0.35);
  };
  // Identically-configured worlds build identically, so a throwaway scenario
  // supplies the operator ids the schedule targets.
  faults::FaultSchedule schedule;
  {
    tracegen::MnoScenarioConfig config;
    config.seed = 42;
    config.total_devices = 10;
    config.build_coverage = false;
    tracegen::MnoScenario probe_scenario{config};
    make_schedule(probe_scenario, schedule);
  }
  ASSERT_GT(schedule.size(), 0u);

  const auto base = run_mno(1, &schedule, /*backoff=*/true);
  expect_families(base.stream);
  for (const unsigned threads : {2u, 8u}) {
    const auto sharded = run_mno(threads, &schedule, /*backoff=*/true);
    expect_identical(base, sharded, threads);
  }
  // The schedule must have actually perturbed the run, or this test proves
  // nothing about fault replay.
  EXPECT_NE(base.stream, run_mno(1).stream);
}

// --- engine accounting ------------------------------------------------------

TEST(ParallelEngine, ShardAccountingConsistent) {
  const auto sharded = run_mno(4);
  EXPECT_EQ(sharded.shards, 4u);
  EXPECT_EQ(sharded.shard_wake_sum, sharded.wakes);
}

TEST(ParallelEngine, ThreadsClampToAgentCount) {
  // More threads than agents must clamp, not spawn empty shards.
  obs::RunObservation observation;
  tracegen::MnoScenarioConfig config;
  config.seed = 5;
  config.total_devices = 40;
  config.threads = 1024;
  config.build_coverage = false;
  config.obs = observation.view();
  tracegen::MnoScenario scenario{config};
  ASSERT_GT(scenario.engine().agent_count(), 0u);
  ASSERT_LT(scenario.engine().agent_count(), 1024u);
  sim::StreamDigest sink;
  scenario.run({&sink});
  EXPECT_LE(scenario.engine().shards_used(), scenario.engine().agent_count());
}

TEST(ParallelEngine, DuplicateSinkIsRejected) {
  // Relayed, the second entry would reach the sink from a second thread.
  // The probe rides the record stream too, so it counts as a sink.
  for (const unsigned threads : {1u, 2u}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    obs::RunObservation observation;
    tracegen::MnoScenarioConfig config;
    config.seed = 42;
    config.total_devices = 50;
    config.threads = threads;
    config.build_coverage = false;
    config.obs = observation.view();
    tracegen::MnoScenario scenario{config};
    sim::StreamDigest a;
    sim::StreamDigest b;
    EXPECT_THROW(scenario.run({&a, &b, &a}), std::invalid_argument);
    EXPECT_THROW(scenario.run({&a, &observation.probe()}), std::invalid_argument);
    EXPECT_EQ(a.records(), 0u);
    // Rejected before anything ran: the engine still runs once.
    scenario.run({&a, &b});
    EXPECT_GT(a.records(), 0u);
    EXPECT_EQ(a, b);
  }
}

// --- relayed sinks -------------------------------------------------------------

/// CatalogGolden.Mno's scenario into three sinks: a digest, the catalog and
/// an in-memory WTRTRC1 trace. `digest_last` moves the digest from the front
/// to the back, so that with threads > 1 it is relayed.
struct ThreeSinkRun {
  sim::StreamDigest stream;
  CatalogFingerprint catalog;
  std::string trace;
};

ThreeSinkRun run_three_sinks(unsigned threads, bool digest_last) {
  tracegen::MnoScenarioConfig config;
  config.seed = 42;
  config.total_devices = 1'200;
  config.days = 7;
  config.build_coverage = true;
  config.threads = threads;
  tracegen::MnoScenario scenario{config};
  core::CatalogAccumulator accumulator{{scenario.observer_plmn(), scenario.family_plmns()}};
  std::ostringstream bytes;
  io::BinaryTraceSink trace{bytes};
  ThreeSinkRun run;
  if (digest_last) {
    scenario.run({&accumulator, &trace, &run.stream});
  } else {
    scenario.run({&run.stream, &accumulator, &trace});
  }
  trace.finish();
  run.trace = bytes.str();
  run.catalog = catalog_fingerprint(accumulator);
  return run;
}

void expect_same_three(const ThreeSinkRun& base, const ThreeSinkRun& run) {
  EXPECT_EQ(run.stream, base.stream);
  EXPECT_EQ(run.catalog, base.catalog);
  // Sizes only: a byte dump of the trace would swamp the log.
  EXPECT_TRUE(run.trace == base.trace)
      << "trace bytes differ (" << run.trace.size() << " vs " << base.trace.size() << ")";
}

TEST(ParallelEngine, RelayedSinksMatchThreads1) {
  const auto base = run_three_sinks(1, /*digest_last=*/false);
  expect_families(base.stream);
  EXPECT_EQ(base.catalog, kMnoCatalogGolden);
  EXPECT_GT(base.trace.size(), 0u);
  for (const unsigned threads : {2u, 3u, 4u}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    expect_same_three(base, run_three_sinks(threads, /*digest_last=*/false));
  }
  SCOPED_TRACE("threads=2, digest relayed");
  expect_same_three(base, run_three_sinks(2, /*digest_last=*/true));
}

// --- failures and the record-log bound ----------------------------------------

/// The failure ThrowingSink raises: a type of its own, so a test can tell
/// that run() rethrows the sink's exception itself.
struct SinkFailure : std::runtime_error {
  SinkFailure() : std::runtime_error("sink failed mid-run") {}
};

/// Throws SinkFailure on its `throw_at`-th record, after a pause long enough
/// for every shard to run ahead and block on a full log.
class ThrowingSink final : public sim::RecordSink {
 public:
  explicit ThrowingSink(std::uint64_t throw_at) : throw_at_(throw_at) {}
  void on_signaling(const signaling::SignalingTransaction&, bool) override { tick(); }
  void on_cdr(const records::Cdr&) override { tick(); }
  void on_xdr(const records::Xdr&) override { tick(); }
  void on_dwell(signaling::DeviceHash, std::int32_t, cellnet::Plmn,
                const cellnet::GeoPoint&, double) override {
    tick();
  }

 private:
  void tick() {
    if (++records_ == throw_at_) {
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
      throw SinkFailure();
    }
  }
  std::uint64_t throw_at_;
  std::uint64_t records_ = 0;
};

/// Runs MNO 600 devices into a ThrowingSink, alone or (`relayed`) behind a
/// digest, so that with threads > 1 it throws on its relay thread while the
/// merge goes on feeding the digest. run() must rethrow the sink's own
/// exception every time.
void expect_sink_failure_rethrown(bool relayed) {
  for (const unsigned threads : {2u, 4u}) {
    // Cadence 0 runs one whole-horizon window, so the shards are far past
    // the log bound and waiting when the sink throws; a daily cadence
    // throws inside the first of many windows.
    for (const std::int64_t cadence_hours : {std::int64_t{0}, std::int64_t{24}}) {
      SCOPED_TRACE("threads=" + std::to_string(threads) +
                   " cadence=" + std::to_string(cadence_hours));
      tracegen::MnoScenarioConfig config;
      config.seed = 42;
      config.total_devices = 600;
      config.threads = threads;
      config.build_coverage = false;
      config.ckpt.every_sim_hours = cadence_hours;  // no path: nothing written
      tracegen::MnoScenario scenario{config};
      sim::StreamDigest first;
      ThrowingSink sink(1000);
      std::vector<sim::RecordSink*> sinks{&sink};
      if (relayed) sinks.insert(sinks.begin(), &first);
      try {
        scenario.run(sinks);
        ADD_FAILURE() << "run() returned despite the throwing sink";
      } catch (const SinkFailure& error) {
        EXPECT_STREQ(error.what(), "sink failed mid-run");
      } catch (const std::exception& error) {
        ADD_FAILURE() << "run() threw something else: " << error.what();
      }
    }
    // Nothing of the failed runs leaks into a fresh one.
    const auto base = run_mno(1);
    expect_families(base.stream);
    const auto fresh = run_mno(threads);
    EXPECT_EQ(base.stream, fresh.stream);
    EXPECT_EQ(base.stream, fresh.relayed);
  }
}

TEST(ParallelEngine, SinkThrowingMidRunIsRethrown) { expect_sink_failure_rethrown(false); }

TEST(ParallelEngine, RelayedSinkThrowingMidRunIsRethrown) {
  expect_sink_failure_rethrown(true);
}

/// Records per shard (agent index modulo the shard count), for the bound
/// check.
class ShardRecordCounter final : public sim::RecordSink {
 public:
  ShardRecordCounter(const sim::Engine& engine, std::size_t shards)
      : per_shard(shards, 0) {
    for (std::size_t i = 0; i < engine.agent_count(); ++i) {
      shard_of_.emplace(engine.device(i).id, i % shards);
    }
  }
  std::vector<std::uint64_t> per_shard;

  void on_signaling(const signaling::SignalingTransaction& txn, bool) override {
    count(txn.device);
  }
  void on_cdr(const records::Cdr& cdr) override { count(cdr.device); }
  void on_xdr(const records::Xdr& xdr) override { count(xdr.device); }
  void on_dwell(signaling::DeviceHash device, std::int32_t, cellnet::Plmn,
                const cellnet::GeoPoint&, double) override {
    count(device);
  }

 private:
  void count(signaling::DeviceHash device) { ++per_shard[shard_of_.at(device)]; }
  std::unordered_map<signaling::DeviceHash, std::size_t> shard_of_;
};

TEST(ParallelEngine, WholeHorizonWindowKeepsRecordLogsBounded) {
  // P1's scenario: 4k devices x 22 days with no cadence, so each shard's
  // single window spans the whole horizon.
  const auto run = [](unsigned threads, const std::string& trace_path,
                      std::vector<std::uint64_t>* per_shard, double* peak_bytes) {
    obs::RunObservation observation;
    tracegen::MnoScenarioConfig config;
    config.seed = 101;
    config.total_devices = 4000;
    config.threads = threads;
    config.build_coverage = false;
    config.obs = observation.view();
    config.telemetry.trace_path = trace_path;
    tracegen::MnoScenario scenario{config};
    sim::StreamDigest digest;
    ShardRecordCounter counter(scenario.engine(), threads);
    scenario.run({&digest, &counter});
    if (per_shard != nullptr) *per_shard = counter.per_shard;
    if (peak_bytes != nullptr) {
      const auto* gauge = observation.metrics().find_gauge("trace.record_buffer_peak_bytes");
      *peak_bytes = gauge != nullptr ? gauge->value() : -1.0;
    }
    return digest;
  };
  const auto trace_path =
      (std::filesystem::temp_directory_path() / "wtr_test_whole_horizon_trace.json")
          .string();
  constexpr unsigned kShards = 4;
  std::vector<std::uint64_t> per_shard;
  double peak_bytes = 0.0;
  const auto sharded = run(kShards, trace_path, &per_shard, &peak_bytes);
  std::filesystem::remove(trace_path);
  expect_families(sharded);
  EXPECT_EQ(sharded, run(1, {}, nullptr, nullptr));

  // Each log holds at most its bound: kLeadChunks unreleased chunks at a
  // wake boundary plus the chunk a wake may overrun into.
  const double bound =
      static_cast<double>((sim::RecordBuffer::kLeadChunks + 1) * sim::RecordBuffer::kChunkBytes);
  EXPECT_GT(peak_bytes, 0.0);
  EXPECT_LE(peak_bytes, kShards * bound);
  // A buffer that held the whole window could not pass: even at 16 bytes a
  // record (its device id and time alone), every shard's window is at least
  // four times the bound.
  ASSERT_EQ(per_shard.size(), kShards);
  for (const auto records : per_shard) {
    EXPECT_GE(static_cast<double>(records) * 16.0, 4.0 * bound);
  }
}

// --- ThreadPool unit tests --------------------------------------------------

TEST(ThreadPool, RunsAllTasks) {
  util::ThreadPool pool(4);
  std::atomic<int> counter{0};
  for (int i = 0; i < 100; ++i) {
    pool.submit([&counter] { counter.fetch_add(1, std::memory_order_relaxed); });
  }
  pool.wait();
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPool, ReusableAcrossWaitCycles) {
  util::ThreadPool pool(2);
  std::atomic<int> counter{0};
  for (int round = 0; round < 3; ++round) {
    for (int i = 0; i < 10; ++i) {
      pool.submit([&counter] { counter.fetch_add(1, std::memory_order_relaxed); });
    }
    pool.wait();
    EXPECT_EQ(counter.load(), (round + 1) * 10);
  }
}

TEST(ThreadPool, PropagatesFirstException) {
  util::ThreadPool pool(2);
  pool.submit([] { throw std::runtime_error("shard failed"); });
  EXPECT_THROW(pool.wait(), std::runtime_error);
  // The pool must stay usable after an exception.
  std::atomic<int> counter{0};
  pool.submit([&counter] { counter.fetch_add(1); });
  pool.wait();
  EXPECT_EQ(counter.load(), 1);
}

TEST(ThreadPool, ZeroWorkersAreRejected) {
  // A task queued with no worker would never run: the streaming merge waits
  // on shard publications before it calls wait().
  EXPECT_THROW(util::ThreadPool(0), std::invalid_argument);
}

}  // namespace
}  // namespace wtr
