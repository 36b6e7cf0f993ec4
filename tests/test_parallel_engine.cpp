// Sharded-engine determinism: Engine::Config::threads must never change a
// single output byte. Every test here digests the full record stream (every
// field of all four record families, sim::StreamDigest), dumps the metrics
// and the probe trajectory, and asserts exact equality between threads=1
// and threads∈{2,8} — across all three scenarios and under a non-empty
// FaultSchedule.
//
// Manifests are compared with timers detached: phase wall-times are the
// one inherently volatile manifest section (they measure the host, not the
// simulation), so "manifest byte-identity" means everything else —
// identity, results, metrics and probe blocks.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <stdexcept>
#include <string>
#include <thread>
#include <unordered_map>

#include "obs/observability.hpp"
#include "obs/run_manifest.hpp"
#include "sim/record_buffer.hpp"
#include "sim/stream_digest.hpp"
#include "stats/sim_time.hpp"
#include "tracegen/m2m_platform_scenario.hpp"
#include "tracegen/mno_scenario.hpp"
#include "tracegen/smip_scenario.hpp"
#include "util/thread_pool.hpp"

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
  scenario.run({&cap.stream});
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

// --- failures and the record-log bound ----------------------------------------

/// Throws from the merge thread on its `throw_at`-th record, after a pause
/// long enough for every shard to run ahead and block on a full log.
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
      throw std::runtime_error("sink failed mid-run");
    }
  }
  std::uint64_t throw_at_;
  std::uint64_t records_ = 0;
};

TEST(ParallelEngine, SinkThrowingMidRunIsRethrown) {
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
      ThrowingSink sink(1000);
      try {
        scenario.run({&sink});
        ADD_FAILURE() << "run() returned despite the throwing sink";
      } catch (const std::runtime_error& error) {
        EXPECT_STREQ(error.what(), "sink failed mid-run");
      }
    }
    // Nothing of the failed runs leaks into a fresh one.
    const auto base = run_mno(1);
    expect_families(base.stream);
    EXPECT_EQ(base.stream, run_mno(threads).stream);
  }
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
