// P1 — pipeline performance. Two layers:
//
//  1. An instrumented end-to-end pipeline run (scenario build → engine →
//     summarize → census) under the obs layer, exported as BENCH_p1.json —
//     the schema-stable manifest the scripts/check.sh regression gate and
//     the cross-commit perf trajectory consume (phase wall-times,
//     records/sec, queue-depth max, failure counters).
//  2. The google-benchmark micro suite for the analysis kernels an operator
//     would run daily (summarize, labeler, classifier, census, gyration,
//     ECDF, simulation throughput).
//
// `--manifest-only` runs just layer 1 (the CI gate's fast path);
// `--threads=N` (or WTR_BENCH_THREADS) runs the engine sharded across N
// workers — output is byte-identical, and the manifest gains an A/B
// speedup measurement against a threads=1 reference run. Any other
// arguments pass through to google-benchmark.

#include <benchmark/benchmark.h>

#include <chrono>
#include <cstring>
#include <filesystem>
#include <sstream>

#include "bench_common.hpp"
#include "ckpt/shutdown.hpp"
#include "core/activity_metrics.hpp"
#include "core/census.hpp"
#include "core/classifier_validation.hpp"
#include "core/trace_replay.hpp"
#include "io/bintrace.hpp"
#include "obs/trace.hpp"
#include "sim/stream_digest.hpp"
#include "stats/distributions.hpp"
#include "tracegen/mno_scenario.hpp"

namespace {

using namespace wtr;

// --- Layer 1: instrumented pipeline manifest -------------------------------

constexpr std::uint64_t kPipelineSeed = 101;

struct PipelineRun {
  std::unique_ptr<tracegen::MnoScenario> scenario;
  std::size_t summaries = 0;
  std::size_t population = 0;
  double wall_s = 0.0;  // scenario build → census, end to end
  bool interrupted = false;  // Ctrl-C landed mid-engine (sinks are drained)
};

PipelineRun run_pipeline_once(unsigned threads, obs::RunObservation& observation) {
  const auto start = std::chrono::steady_clock::now();
  tracegen::MnoScenarioConfig config;
  config.seed = kPipelineSeed;
  config.total_devices = bench::scale_override(4'000);
  config.threads = threads;
  config.build_coverage = false;  // perf path needs no dwell grid
  config.obs = observation.view();

  std::cerr << "[bench] instrumented pipeline: " << config.total_devices
            << " devices, " << config.days << " days, " << threads
            << " thread(s)...\n";
  auto scenario = std::make_unique<tracegen::MnoScenario>(config);
  core::CatalogAccumulator accumulator{{scenario->observer_plmn(),
                                        scenario->family_plmns()}};
  scenario->run({&accumulator});

  if (scenario->engine().interrupted()) {
    // Graceful SIGINT/SIGTERM stop: the engine returned at a wake boundary,
    // so every record produced so far has already been delivered to the
    // accumulator — nothing buffered is lost. Skip the analysis phases;
    // the caller writes a *.partial manifest instead of the real one.
    PipelineRun run;
    run.scenario = std::move(scenario);
    run.interrupted = true;
    run.wall_s =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
            .count();
    return run;
  }

  auto timed = [&](const char* phase, auto&& fn) {
    obs::ScopedTimer timer{&observation.timers(), phase};
    return fn();
  };
  const auto catalog =
      timed("analysis/catalog_finalize", [&] { return accumulator.finalize(); });
  const auto summaries = timed("analysis/summarize", [&] { return core::summarize(catalog); });
  const auto population = timed("analysis/census", [&] {
    return core::run_census(catalog, scenario->observer_plmn(), scenario->mvno_plmns(),
                            scenario->tac_catalog());
  });

  PipelineRun run;
  run.scenario = std::move(scenario);
  run.summaries = summaries.size();
  run.population = population.size();
  run.wall_s = std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
                   .count();
  return run;
}

struct CheckpointGuard {
  bool ran = false;
  std::uint64_t checkpoints_written = 0;
  double checkpoint_wall_s = 0.0;
};

/// A/B guard for the checkpoint subsystem at reduced scale: a cadence-off
/// run must take the legacy code path untouched (zero snapshots written),
/// and a cadence-on run must produce a bit-identical record stream — the
/// snapshot boundaries may never perturb the simulation. Exits nonzero on
/// divergence (this is a correctness gate riding the perf bench).
CheckpointGuard run_checkpoint_guard(unsigned threads) {
  const std::size_t devices = std::max<std::size_t>(bench::scale_override(4'000) / 5, 200);
  const auto ckpt_path =
      (std::filesystem::temp_directory_path() / "wtr_bench_p1_guard_ckpt.bin").string();

  auto one = [&](const sim::CheckpointOptions& ckpt, sim::StreamDigest& sink) {
    tracegen::MnoScenarioConfig config;
    config.seed = kPipelineSeed;
    config.total_devices = devices;
    config.threads = threads;
    config.build_coverage = false;
    config.ckpt = ckpt;
    tracegen::MnoScenario scenario{config};
    scenario.run({&sink});
    CheckpointGuard stats;
    stats.ran = !scenario.engine().interrupted();
    stats.checkpoints_written = scenario.engine().checkpoints_written();
    stats.checkpoint_wall_s = scenario.engine().checkpoint_wall_s();
    return stats;
  };

  std::cerr << "[bench] checkpoint guard: " << devices
            << " devices, cadence off vs 12h...\n";
  sim::StreamDigest off_sink;
  const auto off = one({}, off_sink);

  sim::CheckpointOptions cadence;
  cadence.every_sim_hours = 12;
  cadence.path = ckpt_path;
  sim::StreamDigest on_sink;
  auto on = one(cadence, on_sink);
  std::filesystem::remove(ckpt_path);
  std::filesystem::remove(ckpt_path + ".tmp");

  if (!off.ran || !on.ran) return {};  // Ctrl-C mid-guard: nothing to assert

  if (off.checkpoints_written != 0) {
    std::cerr << "[bench] FAIL: cadence-off run wrote "
              << off.checkpoints_written << " snapshot(s); empty checkpoint "
              << "config must be a no-op\n";
    std::exit(1);
  }
  if (on.checkpoints_written == 0) {
    std::cerr << "[bench] FAIL: cadence-on run wrote no snapshots\n";
    std::exit(1);
  }
  if (off_sink != on_sink) {
    std::cerr << "[bench] FAIL: checkpointing changed the record stream ("
              << off_sink << " vs " << on_sink
              << ") — snapshot boundaries must not perturb the run\n";
    std::exit(1);
  }
  std::cerr << "[bench] checkpoint guard: streams bit-identical, "
            << on.checkpoints_written << " snapshot(s), "
            << io::format_fixed(on.checkpoint_wall_s, 3) << "s snapshot wall\n";
  return on;
}

struct TraceFormatGuard {
  bool ran = false;
  std::uint64_t csv_bytes = 0;
  std::uint64_t binary_bytes = 0;
  std::uint64_t records = 0;
  double csv_wall_s = 0.0;
  double binary_wall_s = 0.0;
};

/// A/B guard for the trace interchange formats at reduced scale: export a
/// scenario's three record families as CSV, convert that CSV to WTRTRC1
/// binary, then replay both through the auto-detecting replay_*_trace entry
/// points into stream digests. The digests must be equal
/// (exit nonzero otherwise — a correctness gate riding the perf bench), and
/// the measured walls feed the replay_speedup manifest key.
TraceFormatGuard run_trace_format_guard() {
  const std::size_t devices = std::max<std::size_t>(bench::scale_override(4'000) / 5, 200);
  std::cerr << "[bench] trace format guard: " << devices
            << " devices, CSV vs WTRTRC1 replay...\n";

  // Export the scenario's replayable families as canonical CSV.
  std::ostringstream sig_csv, cdr_csv, xdr_csv;
  {
    core::CsvTraceExportSink csv_sink{sig_csv, cdr_csv, xdr_csv};
    tracegen::MnoScenarioConfig config;
    config.seed = kPipelineSeed;
    config.total_devices = devices;
    config.build_coverage = false;
    tracegen::MnoScenario scenario{config};
    scenario.run({&csv_sink});
    if (scenario.engine().interrupted()) return {};  // Ctrl-C: nothing to assert
  }
  const std::string sig = sig_csv.str();
  const std::string cdr = cdr_csv.str();
  const std::string xdr = xdr_csv.str();

  // Convert CSV → binary by replaying each stream into a BinaryTraceSink.
  // Converting from the CSV text (rather than re-running the scenario into
  // a binary sink) keeps the A/B honest: CSV rounds call durations to one
  // decimal, so both files must carry the post-rounding values.
  std::uint64_t records = 0;
  auto to_binary = [&records](const std::string& csv,
                              core::ReplayStats (*replay)(std::istream&,
                                                          sim::RecordSink&)) {
    std::ostringstream out;
    {
      io::BinaryTraceSink sink{out};
      std::istringstream in{csv};
      const auto stats = replay(in, sink);
      records += stats.delivered;
    }
    return out.str();
  };
  const std::string sig_bin = to_binary(sig, core::replay_signaling_csv);
  const std::string cdr_bin = to_binary(cdr, core::replay_cdr_csv);
  const std::string xdr_bin = to_binary(xdr, core::replay_xdr_csv);

  // Correctness pass (untimed): replay both formats through the
  // format-sniffing entry points into stream digests.
  auto digest_replay = [](const std::string& s, const std::string& c,
                          const std::string& x) {
    sim::StreamDigest digest;
    std::istringstream si{s}, ci{c}, xi{x};
    core::replay_signaling_trace(si, digest);
    core::replay_cdr_trace(ci, digest);
    core::replay_xdr_trace(xi, digest);
    return digest;
  };
  const auto csv_digest = digest_replay(sig, cdr, xdr);
  const auto bin_digest = digest_replay(sig_bin, cdr_bin, xdr_bin);

  // Timing pass: replay into a sink that only folds each record into a
  // checksum, so the walls measure the decoders — not a digest that hashes
  // every byte of every record and would dilute the ratio.
  struct FoldSink final : sim::RecordSink {
    std::uint64_t fold = 0;
    void on_signaling(const signaling::SignalingTransaction& txn,
                      bool data_context) override {
      fold += txn.device ^ static_cast<std::uint64_t>(txn.time) ^ txn.sector ^
              (data_context ? 1u : 0u);
    }
    void on_cdr(const records::Cdr& cdr) override {
      fold += cdr.device ^ static_cast<std::uint64_t>(cdr.time);
    }
    void on_xdr(const records::Xdr& xdr) override {
      fold += xdr.device ^ xdr.bytes_up ^ xdr.bytes_down ^ xdr.apn.text().size();
    }
    void on_dwell(signaling::DeviceHash device, std::int32_t, cellnet::Plmn,
                  const cellnet::GeoPoint&, double) override {
      fold += device;
    }
  };
  constexpr int kReps = 3;
  std::uint64_t fold_csv = 0;
  std::uint64_t fold_bin = 0;
  auto timed_replay = [&](const std::string& s, const std::string& c,
                          const std::string& x, std::uint64_t& fold) {
    double wall = 0.0;
    for (int rep = 0; rep < kReps; ++rep) {
      FoldSink sink;
      std::istringstream si{s}, ci{c}, xi{x};
      const auto start = std::chrono::steady_clock::now();
      core::replay_signaling_trace(si, sink);
      core::replay_cdr_trace(ci, sink);
      core::replay_xdr_trace(xi, sink);
      wall += std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
                  .count();
      fold ^= sink.fold;  // keep the sink's work observable
    }
    return wall;
  };
  TraceFormatGuard guard;
  guard.csv_wall_s = timed_replay(sig, cdr, xdr, fold_csv);
  guard.binary_wall_s = timed_replay(sig_bin, cdr_bin, xdr_bin, fold_bin);

  if (csv_digest != bin_digest || fold_csv != fold_bin) {
    std::cerr << "[bench] FAIL: binary trace replay diverged from CSV replay ("
              << csv_digest << " vs " << bin_digest
              << ") — the two interchange formats must reproduce the "
              << "same record stream\n";
    std::exit(1);
  }

  guard.ran = true;
  guard.csv_bytes = sig.size() + cdr.size() + xdr.size();
  guard.binary_bytes = sig_bin.size() + cdr_bin.size() + xdr_bin.size();
  guard.records = records;
  const double speedup =
      guard.binary_wall_s > 0.0 ? guard.csv_wall_s / guard.binary_wall_s : 0.0;
  std::cerr << "[bench] trace format guard: streams bit-identical, " << records
            << " records, " << guard.csv_bytes << " B csv vs "
            << guard.binary_bytes << " B binary, replay "
            << io::format_fixed(speedup, 2) << "x faster\n";
  return guard;
}

struct TraceOverheadGuard {
  bool ran = false;
  double off_wall_s = 0.0;
  double on_wall_s = 0.0;
  double overhead_pct = 0.0;
  std::uint64_t trace_events = 0;
};

/// A/B guard for the flight recorder at reduced scale: a traced run must
/// produce a bit-identical record stream (tracing may never perturb the
/// simulation — exit nonzero otherwise), and its wall-time overhead must
/// stay under WTR_TRACE_OVERHEAD_MAX_PCT (default 3%). Min-of-3 walls per
/// arm; deltas inside an absolute noise floor pass regardless of ratio,
/// since tiny guard-scale runs can't resolve sub-millisecond differences.
TraceOverheadGuard run_trace_overhead_guard(unsigned threads) {
  const std::size_t devices = std::max<std::size_t>(bench::scale_override(4'000) / 5, 200);
  const auto trace_path =
      (std::filesystem::temp_directory_path() / "wtr_bench_p1_guard_trace.json").string();
  std::cerr << "[bench] trace overhead guard: " << devices
            << " devices, recorder off vs on...\n";

  constexpr int kReps = 3;
  TraceOverheadGuard guard;
  sim::StreamDigest off_stream, on_stream;
  bool interrupted = false;

  auto arm = [&](const std::string& path, sim::StreamDigest& stream,
                 std::uint64_t& events) {
    double best = 0.0;
    for (int rep = 0; rep < kReps && !interrupted; ++rep) {
      tracegen::MnoScenarioConfig config;
      config.seed = kPipelineSeed;
      config.total_devices = devices;
      config.threads = threads;
      config.build_coverage = false;
      config.telemetry.trace_path = path;
      sim::StreamDigest sink;
      const auto start = std::chrono::steady_clock::now();
      tracegen::MnoScenario scenario{config};
      scenario.run({&sink});
      const double wall =
          std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
              .count();
      if (scenario.engine().interrupted()) {
        interrupted = true;
        return 0.0;
      }
      if (const auto* rec = scenario.engine().flight_recorder()) {
        events = rec->events_recorded();
      }
      if (rep == 0) stream = sink;
      best = rep == 0 ? wall : std::min(best, wall);
    }
    return best;
  };

  std::uint64_t off_events = 0;
  guard.off_wall_s = arm("", off_stream, off_events);
  guard.on_wall_s = arm(trace_path, on_stream, guard.trace_events);
  std::filesystem::remove(trace_path);
  if (interrupted) return {};  // Ctrl-C mid-guard: nothing to assert

  if (off_stream != on_stream) {
    std::cerr << "[bench] FAIL: enabling the flight recorder changed the "
              << "record stream (" << off_stream << " vs " << on_stream
              << ") — tracing must not perturb the simulation\n";
    std::exit(1);
  }
  if (guard.trace_events == 0) {
    std::cerr << "[bench] FAIL: traced run recorded no flight-recorder events\n";
    std::exit(1);
  }

  double max_pct = 3.0;
  if (const char* env = std::getenv("WTR_TRACE_OVERHEAD_MAX_PCT");
      env != nullptr && *env != '\0') {
    max_pct = std::strtod(env, nullptr);
  }
  const double delta_s = guard.on_wall_s - guard.off_wall_s;
  guard.overhead_pct =
      guard.off_wall_s > 0.0 ? delta_s / guard.off_wall_s * 100.0 : 0.0;
  // Noise floor: at guard scale a few ms of scheduler jitter can exceed any
  // percentage bound; only a delta that is both relatively and absolutely
  // large indicates real recorder overhead.
  constexpr double kNoiseFloorS = 0.025;
  if (guard.overhead_pct > max_pct && delta_s > kNoiseFloorS) {
    std::cerr << "[bench] FAIL: flight-recorder overhead "
              << io::format_fixed(guard.overhead_pct, 2) << "% exceeds "
              << io::format_fixed(max_pct, 2) << "% (walls "
              << io::format_fixed(guard.off_wall_s, 3) << "s off vs "
              << io::format_fixed(guard.on_wall_s, 3) << "s on)\n";
    std::exit(1);
  }
  guard.ran = true;
  std::cerr << "[bench] trace overhead guard: streams bit-identical, "
            << guard.trace_events << " events, overhead "
            << io::format_fixed(guard.overhead_pct, 2) << "%\n";
  return guard;
}

/// Returns false when the run was interrupted by SIGINT/SIGTERM — the
/// partial manifest has been written and the micro benches must not run.
bool run_instrumented_pipeline(unsigned threads) {
  // With threads > 1, run a threads=1 reference first so the manifest can
  // report measured speedups. The sharded run's records and probe stats are
  // byte-identical to the reference's — only the wall times differ.
  double ref_engine_s = 0.0;
  double ref_wall_s = 0.0;
  if (threads > 1) {
    obs::RunObservation reference;
    const auto ref = run_pipeline_once(1, reference);
    if (ref.interrupted) return false;
    ref_engine_s = reference.timers().total_s("engine/run");
    ref_wall_s = ref.wall_s;
  }

  obs::RunObservation observation;
  const auto run = run_pipeline_once(threads, observation);
  if (run.interrupted) {
    // Export what the drained sinks and probe saw under a *.partial name so
    // an aborted bench leaves a marker instead of a fake baseline.
    auto manifest = bench::make_manifest("p1.partial", kPipelineSeed,
                                         bench::scale_override(4'000), observation);
    manifest.add_result("interrupted", std::string{"signal"});
    manifest.add_result("records_total", observation.probe().records_total());
    bench::add_thread_metadata(manifest, run.scenario->engine(), threads);
    bench::write_manifest(manifest);
    std::cerr << "[bench] interrupted: sinks drained, partial manifest written\n";
    return false;
  }
  const auto& scenario = *run.scenario;
  const std::int32_t config_days = tracegen::MnoScenarioConfig{}.days;

  const auto& probe = observation.probe();
  const double engine_s = observation.timers().total_s("engine/run");
  const double records_per_sec =
      engine_s > 0.0 ? static_cast<double>(probe.records_total()) / engine_s : 0.0;

  auto manifest = bench::make_manifest("p1", kPipelineSeed,
                                       bench::scale_override(4'000), observation);
  manifest.add_result("devices", static_cast<std::uint64_t>(scenario.device_count()));
  manifest.add_result("days", static_cast<std::uint64_t>(config_days));
  manifest.add_result("records_total", probe.records_total());
  manifest.add_result("records_per_sec", records_per_sec);
  manifest.add_result("queue_depth_max", probe.queue_depth_max());
  manifest.add_result("attach_failure_rate", probe.attach_failure_rate());
  manifest.add_result("summaries", static_cast<std::uint64_t>(run.summaries));
  manifest.add_result("population", static_cast<std::uint64_t>(run.population));
  bench::add_thread_metadata(manifest, run.scenario->engine(), threads);
  const auto guard = run_checkpoint_guard(threads);
  if (guard.ran) {
    manifest.add_result("checkpoints_written", guard.checkpoints_written);
    manifest.add_result("checkpoint_wall_s", guard.checkpoint_wall_s);
    manifest.add_result("checkpoint_guard", std::string{"ok"});
  }
  const auto trace_guard = run_trace_format_guard();
  if (trace_guard.ran) {
    manifest.add_result("trace_bytes_csv", trace_guard.csv_bytes);
    manifest.add_result("trace_bytes_binary", trace_guard.binary_bytes);
    manifest.add_result("replay_wall_s_csv", trace_guard.csv_wall_s);
    manifest.add_result("replay_wall_s_binary", trace_guard.binary_wall_s);
    manifest.add_result("replay_speedup",
                        trace_guard.binary_wall_s > 0.0
                            ? trace_guard.csv_wall_s / trace_guard.binary_wall_s
                            : 0.0);
    manifest.add_result("trace_format_guard", std::string{"ok"});
  }
  const auto overhead_guard = run_trace_overhead_guard(threads);
  if (overhead_guard.ran) {
    manifest.add_result("trace_overhead_pct", overhead_guard.overhead_pct);
    manifest.add_result("trace_events", overhead_guard.trace_events);
    manifest.add_result("trace_guard", std::string{"ok"});
  }
  if (threads > 1) {
    manifest.add_result("engine_speedup",
                        engine_s > 0.0 ? ref_engine_s / engine_s : 0.0);
    manifest.add_result("end_to_end_speedup",
                        run.wall_s > 0.0 ? ref_wall_s / run.wall_s : 0.0);
    std::cerr << "[bench] speedup vs threads=1: engine "
              << io::format_fixed(engine_s > 0.0 ? ref_engine_s / engine_s : 0.0, 2)
              << "x, end-to-end "
              << io::format_fixed(run.wall_s > 0.0 ? ref_wall_s / run.wall_s : 0.0, 2)
              << "x\n";
  }
  bench::write_manifest(manifest);

  io::Table table{{"pipeline phase", "wall_s", "spans"}};
  for (const auto& phase : observation.timers().phases()) {
    table.add_row({std::string(static_cast<std::size_t>(phase.depth) * 2, ' ') +
                       phase.path,
                   io::format_fixed(phase.wall_s, 3), io::format_count(phase.count)});
  }
  std::cout << io::figure_banner("P1", "Instrumented pipeline phases")
            << table.render() << "records/sec (engine phase): "
            << io::format_fixed(records_per_sec, 0) << "\n\n";
  return true;
}

// --- Layer 2: kernel micro-benchmarks --------------------------------------

struct Fixture {
  std::unique_ptr<tracegen::MnoScenario> scenario;
  records::DevicesCatalog catalog;
  std::vector<core::DeviceSummary> summaries;

  static const Fixture& get() {
    static const Fixture fixture = [] {
      tracegen::MnoScenarioConfig config;
      config.seed = 101;
      config.total_devices = 4'000;
      auto scenario = std::make_unique<tracegen::MnoScenario>(config);
      core::CatalogAccumulator accumulator{{scenario->observer_plmn(),
                                            scenario->family_plmns()}};
      scenario->run({&accumulator});
      auto catalog = accumulator.finalize();
      auto summaries = core::summarize(catalog);
      return Fixture{std::move(scenario), std::move(catalog), std::move(summaries)};
    }();
    return fixture;
  }
};

void BM_Summarize(benchmark::State& state) {
  const auto& fixture = Fixture::get();
  for (auto _ : state) {
    auto summaries = core::summarize(fixture.catalog);
    benchmark::DoNotOptimize(summaries);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(fixture.catalog.size()));
}
BENCHMARK(BM_Summarize)->Unit(benchmark::kMillisecond);

void BM_RoamingLabeler(benchmark::State& state) {
  const auto& fixture = Fixture::get();
  const core::RoamingLabeler labeler{fixture.scenario->observer_plmn(),
                                     fixture.scenario->mvno_plmns()};
  for (auto _ : state) {
    std::size_t inbound = 0;
    for (const auto& summary : fixture.summaries) {
      if (labeler.label(summary.sim_plmn, summary.visited_plmns) ==
          core::kInboundRoamerLabel) {
        ++inbound;
      }
    }
    benchmark::DoNotOptimize(inbound);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(fixture.summaries.size()));
}
BENCHMARK(BM_RoamingLabeler)->Unit(benchmark::kMicrosecond);

void BM_Classifier(benchmark::State& state) {
  const auto& fixture = Fixture::get();
  const core::DeviceClassifier classifier{fixture.scenario->tac_catalog()};
  for (auto _ : state) {
    auto result = classifier.classify(fixture.summaries);
    benchmark::DoNotOptimize(result);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(fixture.summaries.size()));
}
BENCHMARK(BM_Classifier)->Unit(benchmark::kMillisecond);

void BM_ClassifierNoPropagation(benchmark::State& state) {
  const auto& fixture = Fixture::get();
  core::ClassifierConfig config;
  config.propagate_device_properties = false;
  const core::DeviceClassifier classifier{fixture.scenario->tac_catalog(), config};
  for (auto _ : state) {
    auto result = classifier.classify(fixture.summaries);
    benchmark::DoNotOptimize(result);
  }
}
BENCHMARK(BM_ClassifierNoPropagation)->Unit(benchmark::kMillisecond);

void BM_FullCensus(benchmark::State& state) {
  const auto& fixture = Fixture::get();
  for (auto _ : state) {
    auto population =
        core::run_census(fixture.catalog, fixture.scenario->observer_plmn(),
                         fixture.scenario->mvno_plmns(), fixture.scenario->tac_catalog());
    benchmark::DoNotOptimize(population);
  }
}
BENCHMARK(BM_FullCensus)->Unit(benchmark::kMillisecond);

void BM_GyrationAccumulator(benchmark::State& state) {
  stats::Rng rng{1};
  std::vector<cellnet::GeoPoint> points;
  std::vector<double> weights;
  const cellnet::GeoPoint base{51.5, -0.1};
  for (int i = 0; i < 1'000; ++i) {
    points.push_back(cellnet::offset_m(base, rng.uniform(-5e3, 5e3), rng.uniform(-5e3, 5e3)));
    weights.push_back(rng.uniform(1.0, 600.0));
  }
  for (auto _ : state) {
    core::GyrationAccumulator acc;
    for (std::size_t i = 0; i < points.size(); ++i) acc.add(points[i], weights[i]);
    benchmark::DoNotOptimize(acc.gyration_m());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 1'000);
}
BENCHMARK(BM_GyrationAccumulator)->Unit(benchmark::kMicrosecond);

void BM_EcdfQuantiles(benchmark::State& state) {
  stats::Rng rng{2};
  stats::Ecdf ecdf;
  for (int i = 0; i < 100'000; ++i) ecdf.add(stats::sample_lognormal(rng, 3.0, 1.5));
  for (auto _ : state) {
    double total = 0.0;
    for (double q = 0.01; q < 1.0; q += 0.01) total += ecdf.quantile(q);
    benchmark::DoNotOptimize(total);
  }
}
BENCHMARK(BM_EcdfQuantiles)->Unit(benchmark::kMicrosecond);

void BM_SimulationThroughput(benchmark::State& state) {
  // Wall-clock cost of simulating one device-day at MNO-population mix.
  for (auto _ : state) {
    tracegen::MnoScenarioConfig config;
    config.seed = 77;
    config.total_devices = 500;
    config.build_coverage = false;
    tracegen::MnoScenario scenario{config};
    core::CatalogAccumulator accumulator{{scenario.observer_plmn(),
                                          scenario.family_plmns()}};
    scenario.run({&accumulator});
    benchmark::DoNotOptimize(accumulator.accepted_records());
  }
}
BENCHMARK(BM_SimulationThroughput)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  const unsigned threads = wtr::bench::threads_from_args(argc, argv);
  bool manifest_only = false;
  // Strip our flag before google-benchmark sees the argument vector.
  int out = 1;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--manifest-only") == 0) {
      manifest_only = true;
    } else {
      argv[out++] = argv[i];
    }
  }
  argc = out;

  // Ctrl-C lands as a graceful engine stop (drained sinks + a *.partial
  // manifest) instead of killing the process with buffered state lost.
  wtr::ckpt::install_shutdown_handlers();

  if (!run_instrumented_pipeline(threads)) return 130;
  if (manifest_only) return 0;

  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
