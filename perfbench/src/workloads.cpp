#include "workloads.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <stdexcept>
#include <string_view>

#include "ckpt/file_sink.hpp"
#include "core/census.hpp"
#include "core/trace_replay.hpp"
#include "digest.hpp"
#include "faults/congestion.hpp"
#include "faults/resilience_report.hpp"
#include "io/json.hpp"
#include "obs/observability.hpp"
#include "obs/trace.hpp"
#include "sinks.hpp"
#include "spans.hpp"
#include "tracegen/mno_scenario.hpp"
#include "tracegen/storm_scenario.hpp"

namespace perfbench {

namespace {

using namespace wtr;

// --- sizes -----------------------------------------------------------------
// 100k devices is the ROADMAP's T2 scale: large enough that set-up and the
// analysis each take a few tenths of a second (smaller fleets put set-up in
// the tens of milliseconds, where run-to-run noise swamps it). The horizons
// keep one iteration at a few seconds, so a run can take the median of
// several fresh processes.
struct Sizes {
  std::size_t devices = 0;
  std::int32_t days = 0;
};

constexpr Sizes kFullSizes{100'000, 1};
constexpr Sizes kSmokeSizes{2'000, 1};

/// Engine threads of the sharded workload: on a 4-core machine, two shard
/// threads leave a core for the merge thread and one for everything else.
constexpr unsigned kRoundtripThreads = 2;
constexpr std::int64_t kRoundtripSnapshotEverySimHours = 8;

// --- per-layer metrics ------------------------------------------------------
// Every traced iteration reports all of these, zero where the workload
// bypasses the layer. run.py checks the list against BENCHMARK.json.
constexpr const char* kLayerMetrics[] = {
    "tracegen.world_s",         "tracegen.fleets_s",
    "sim.dormant_bytes_per_agent", "sim.arena_bytes_per_agent",
    "sim.agents_hydrated",      "sim.wakes",
    "sim.run_self_s",           "sim.ns_per_wake",
    "sim.queue_depth_hwm",      "sim.wheel_rebases",
    "sim.merge_s",              "sim.window_wall_s",
    "sim.merge_wait_skew_s",    "sim.shard_busy_frac_min",
    "sim.shard_busy_frac_max",  "sim.record_buffer_peak_bytes",
    "records.signaling",        "records.cdr",
    "records.xdr",              "records.dwell",
    "core.accumulate_self_s",   "core.accepted_ratio",
    "io.encode_self_s",         "io.trace_bytes",
    "io.bytes_per_record",      "ckpt.snapshots",
    "ckpt.write_s",             "ckpt.snapshot_bytes",
    "io.decode_s",              "core.replay_accumulate_s",
    "io.replay_malformed",      "core.finalize_s",
    "core.census_s",            "core.catalog_rows",
    "core.census_devices",      "signaling.evaluations",
    "signaling.rejects",        "signaling.success_ratio",
    "faults.report_self_s",     "faults.attach_attempts",
    "faults.congestion_rejects", "faults.eab_barred",
    "faults.congested_buckets",
};

std::uint64_t peak_rss_bytes() {
  struct rusage usage{};
  if (::getrusage(RUSAGE_SELF, &usage) != 0) return 0;
  return static_cast<std::uint64_t>(usage.ru_maxrss) * 1024u;
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// Shared state of one iteration: the span log (every phase is timed through
/// it, traced or not), the observability bundle of traced runs, and the
/// result being filled in.
class Iteration {
 public:
  explicit Iteration(const IterationOptions& options) : options_(options) {
    if (options_.traced) {
      observation_ = std::make_unique<obs::RunObservation>();
      for (const char* name : kLayerMetrics) result_.layers.emplace_back(name, 0.0);
    }
  }

  [[nodiscard]] bool traced() const noexcept { return options_.traced; }
  [[nodiscard]] std::uint64_t seed() const noexcept { return options_.seed; }
  [[nodiscard]] bool smoke() const noexcept { return options_.smoke; }
  [[nodiscard]] IterationResult& result() noexcept { return result_; }

  [[nodiscard]] std::string work_file(const char* name) const {
    return (std::filesystem::path(options_.work_dir) / name).string();
  }

  /// Observability handle for scenario configs (all-null when untraced).
  [[nodiscard]] obs::Observability obs() {
    return observation_ ? observation_->view() : obs::Observability{};
  }
  [[nodiscard]] obs::MetricsRegistry* metrics() {
    return observation_ ? &observation_->metrics() : nullptr;
  }
  /// Flight-recorder export path for scenario configs (empty when untraced).
  [[nodiscard]] std::string engine_trace_path() const {
    return traced() ? work_file("engine_trace.json") : std::string{};
  }

  [[nodiscard]] std::int64_t now() const noexcept { return spans_.now_ns(); }

  /// Close the phase that began at `start`: log its span, return seconds.
  double phase(const char* name, std::int64_t start, const char* track = "phases") {
    const std::int64_t dur = spans_.now_ns() - start;
    spans_.add(name, track, start, dur);
    return static_cast<double>(dur) / 1e9;
  }

  void expect(bool ok, const std::string& what) {
    if (!ok) result_.failures.push_back(what);
  }

  void fact(const std::string& name, std::uint64_t value) {
    result_.facts.push_back({name, std::to_string(value)});
  }
  void fact_hex(const std::string& name, std::uint64_t value) {
    result_.facts.push_back({name, "\"" + hex64(value) + "\""});
  }

  /// Set a per-layer metric (traced only). Unknown names are a bug.
  void layer(std::string_view name, double value) {
    if (!traced()) return;
    for (auto& [key, slot] : result_.layers) {
      if (key == name) {
        slot = value;
        return;
      }
    }
    throw std::logic_error("perfbench: unknown layer metric " + std::string(name));
  }

  /// Remember the engine flight recorder's epoch on the span log's clock
  /// (call right after the scenario, and so the engine, is constructed).
  void sync_engine_clock(sim::Engine& engine) {
    if (auto* recorder = engine.flight_recorder()) {
      engine_epoch_ns_ = spans_.now_ns() - recorder->now_ns();
    }
  }

  /// World and fleet build spans from the scenario's phase timers, placed
  /// from `setup_start` (fleets are the aggregate of every add_fleet call).
  void setup_layers(std::int64_t setup_start) {
    if (!traced()) return;
    const auto& timers = observation_->timers();
    const double world_s = timers.total_s("scenario/world");
    const double fleets_s = timers.total_s("scenario/fleets");
    layer("tracegen.world_s", world_s);
    layer("tracegen.fleets_s", fleets_s);
    const auto world_ns = static_cast<std::int64_t>(world_s * 1e9);
    spans_.add("world", "setup", setup_start, world_ns);
    spans_.add("fleets", "setup", setup_start + world_ns,
               static_cast<std::int64_t>(fleets_s * 1e9), {{"aggregate", 1.0}});
  }

  /// Engine-side layers after run(): arena, wakes, queue, shard balance and
  /// the signaling counters. `sink_self_s` is the wrappers' summed self time
  /// during run(), `run_wall_s` the wall time of run() alone.
  void engine_layers(sim::Engine& engine, std::size_t dormant_bytes, double run_wall_s,
                     double sink_self_s, std::int64_t run_start) {
    if (!traced()) return;
    const double agents = static_cast<double>(engine.agent_count());
    layer("sim.dormant_bytes_per_agent", ratio(static_cast<double>(dormant_bytes), agents));
    layer("sim.arena_bytes_per_agent",
          ratio(static_cast<double>(engine.arena_resident_bytes()), agents));
    layer("sim.agents_hydrated", static_cast<double>(engine.agents_hydrated()));
    const double wakes = static_cast<double>(engine.wakes_processed());
    const double self_s = run_wall_s - sink_self_s;
    layer("sim.wakes", wakes);
    layer("sim.run_self_s", self_s);
    layer("sim.ns_per_wake", ratio(self_s * 1e9, wakes));
    layer("sim.queue_depth_hwm", static_cast<double>(engine.queue_depth_hwm()));
    layer("sim.merge_s", engine.merge_wall_s());
    layer("sim.window_wall_s", engine.window_wall_s());
    layer("sim.merge_wait_skew_s", engine.merge_wait_skew_s());
    const auto& busy = engine.shard_busy_s();
    if (!busy.empty() && engine.window_wall_s() > 0.0) {
      const auto [lo, hi] = std::minmax_element(busy.begin(), busy.end());
      layer("sim.shard_busy_frac_min", *lo / engine.window_wall_s());
      layer("sim.shard_busy_frac_max", *hi / engine.window_wall_s());
    }
    const auto gauge = [this](const char* name) {
      const auto* g = metrics()->find_gauge(name);
      return g != nullptr ? g->value() : 0.0;
    };
    const auto counter = [this](const char* name) {
      const auto* c = metrics()->find_counter(name);
      return c != nullptr ? static_cast<double>(c->value()) : 0.0;
    };
    layer("sim.wheel_rebases", gauge("trace.wheel_rebases"));
    layer("sim.record_buffer_peak_bytes", gauge("trace.record_buffer_peak_bytes"));
    const double evaluations = counter("signaling.evaluations");
    const double rejects = counter("signaling.rejects");
    layer("signaling.evaluations", evaluations);
    layer("signaling.rejects", rejects);
    layer("signaling.success_ratio", evaluations > 0.0 ? 1.0 - rejects / evaluations : 0.0);
    if (engine.merge_wall_s() > 0.0) {
      spans_.add("merge_replay", "run", run_start,
                 static_cast<std::int64_t>(engine.merge_wall_s() * 1e9),
                 {{"aggregate", 1.0}});
    }
    engine_json_ = engine.flight_recorder() != nullptr
                       ? engine.flight_recorder()->to_chrome_json()
                       : std::string{};
  }

  /// Per-sink self time as an aggregate span on the sink's own lane.
  void sink_span(const char* name, std::int64_t run_start, double self_s) {
    spans_.add(name, std::string("sink ") + name, run_start,
               static_cast<std::int64_t>(self_s * 1e9), {{"aggregate", 1.0}});
  }

  /// The scenario's size, so a reference taken at other sizes cannot match.
  void scenario_facts(std::size_t devices, std::int32_t days) {
    fact("devices", devices);
    fact("days", static_cast<std::uint64_t>(days));
  }

  void record_counts(const RecordCounts& counts) {
    result_.records = counts.total();
    fact("records.signaling", counts.signaling);
    fact("records.cdr", counts.cdr);
    fact("records.xdr", counts.xdr);
    fact("records.dwell", counts.dwell);
    layer("records.signaling", static_cast<double>(counts.signaling));
    layer("records.cdr", static_cast<double>(counts.cdr));
    layer("records.xdr", static_cast<double>(counts.xdr));
    layer("records.dwell", static_cast<double>(counts.dwell));
  }

  /// Write the span export (traced only), delete the work files, stamp RSS.
  IterationResult finish() {
    if (traced() && !options_.spans_path.empty()) {
      std::ofstream out(options_.spans_path, std::ios::binary | std::ios::trunc);
      out << spans_.to_chrome_json(engine_json_, engine_epoch_ns_);
      if (!out) expect(false, "cannot write span export " + options_.spans_path);
    }
    std::error_code ignored;
    for (const char* name : {"engine_trace.json", "trace.wtr", "snapshot.bin"}) {
      std::filesystem::remove(work_file(name), ignored);
    }
    result_.peak_rss_bytes = peak_rss_bytes();
    return std::move(result_);
  }

 private:
  IterationOptions options_;
  std::unique_ptr<obs::RunObservation> observation_;
  SpanLog spans_;
  IterationResult result_;
  std::string engine_json_;
  std::int64_t engine_epoch_ns_ = 0;
};

/// A finished census with the catalog size and the two phase times.
struct Analysis {
  core::ClassifiedPopulation population;
  std::size_t catalog_rows;
  double finalize_s;
  double census_s;
};

/// finalize() + run_census(), each timed as its own phase (span names get
/// `prefix`), plus the structural checks every census must pass.
Analysis analyse(Iteration& it, core::CatalogAccumulator& accumulator,
                 cellnet::Plmn observer, std::vector<cellnet::Plmn> mvnos,
                 const cellnet::TacCatalog& tac_catalog, const char* prefix) {
  const std::string finalize_name = std::string(prefix) + "finalize";
  const std::string census_name = std::string(prefix) + "census";
  auto start = it.now();
  const records::DevicesCatalog catalog = accumulator.finalize();
  const double finalize_s = it.phase(finalize_name.c_str(), start, "analysis");
  start = it.now();
  Analysis a{core::run_census(catalog, observer, std::move(mvnos), tac_catalog),
             catalog.size(), finalize_s, 0.0};
  a.census_s = it.phase(census_name.c_str(), start, "analysis");

  // Structural checks that hold for any seed: every catalog row belongs to
  // exactly one device summary, and the census classifies every device.
  std::uint64_t active_days = 0;
  for (const auto& s : a.population.summaries) active_days += s.active_days;
  it.expect(active_days == a.catalog_rows,
            "census active days " + std::to_string(active_days) + " != catalog rows " +
                std::to_string(a.catalog_rows));
  it.expect(a.population.labels.size() == a.population.size() &&
                a.population.classes.size() == a.population.size(),
            "census labels/classes not parallel to summaries");
  it.expect(a.population.size() > 0, "empty census");
  return a;
}

void census_facts(Iteration& it, const Analysis& a) {
  it.fact_hex("census_digest", census_digest(a.population));
  it.fact("census_devices", a.population.size());
  it.fact("catalog_rows", a.catalog_rows);
  it.layer("core.finalize_s", a.finalize_s);
  it.layer("core.census_s", a.census_s);
  it.layer("core.catalog_rows", static_cast<double>(a.catalog_rows));
  it.layer("core.census_devices", static_cast<double>(a.population.size()));
}

tracegen::MnoScenarioConfig mno_config(Iteration& it, Sizes sizes, unsigned threads) {
  tracegen::MnoScenarioConfig config;
  config.seed = it.seed();
  config.total_devices = sizes.devices;
  config.days = sizes.days;
  config.threads = threads;
  config.build_coverage = true;
  config.obs = it.obs();
  config.telemetry.trace_path = it.engine_trace_path();
  return config;
}

// --- mno_census --------------------------------------------------------------
// The paper's §4–6 pipeline on the dormant-heavy visited-MNO population:
// one CatalogAccumulator, then finalize and census.
void mno_census(Iteration& it) {
  const Sizes sizes = it.smoke() ? kSmokeSizes : kFullSizes;
  const auto setup_start = it.now();
  tracegen::MnoScenario scenario{mno_config(it, sizes, 1)};
  core::CatalogAccumulator accumulator{{scenario.observer_plmn(), scenario.family_plmns()}};
  ForwardingSink catalog_sink{accumulator, it.traced()};
  it.result().setup_s = it.phase("setup", setup_start);
  it.sync_engine_clock(scenario.engine());
  it.setup_layers(setup_start);
  const std::size_t dormant_bytes = scenario.engine().arena_resident_bytes();

  const auto run_start = it.now();
  scenario.run({&catalog_sink});
  it.result().run_s = it.phase("run", run_start);
  it.record_counts(catalog_sink.counts());
  it.sink_span("catalog", run_start, catalog_sink.self_s());
  it.engine_layers(scenario.engine(), dormant_bytes, it.result().run_s,
                   catalog_sink.self_s(), run_start);
  it.layer("core.accumulate_self_s", catalog_sink.self_s());
  it.layer("core.accepted_ratio", ratio(static_cast<double>(accumulator.accepted_records()),
                                        static_cast<double>(catalog_sink.counts().total())));

  const auto analysis_start = it.now();
  const Analysis analysis = analyse(it, accumulator, scenario.observer_plmn(),
                                    scenario.mvno_plmns(), scenario.tac_catalog(), "");
  it.result().analysis_s = it.phase("analysis", analysis_start);
  census_facts(it, analysis);
  it.scenario_facts(scenario.device_count(), sizes.days);
}

// --- trace_roundtrip ---------------------------------------------------------
// The same scenario on the sharded path: a CatalogAccumulator beside a
// checkpointed WTRTRC1 trace file, then the trace is replayed into a fresh
// accumulator and census, which must equal the live one.
void trace_roundtrip(Iteration& it) {
  const Sizes sizes = it.smoke() ? kSmokeSizes : kFullSizes;
  const std::string trace_path = it.work_file("trace.wtr");
  const std::string snapshot_path = it.work_file("snapshot.bin");

  const auto setup_start = it.now();
  auto config = mno_config(it, sizes, kRoundtripThreads);
  config.ckpt.every_sim_hours = kRoundtripSnapshotEverySimHours;
  config.ckpt.path = snapshot_path;
  tracegen::MnoScenario scenario{config};
  core::CatalogAccumulator accumulator{{scenario.observer_plmn(), scenario.family_plmns()}};
  ckpt::BinaryTraceFileSink trace_file{trace_path};
  scenario.engine().register_checkpointable("trace_file", &trace_file);
  ForwardingSink catalog_sink{accumulator, it.traced()};
  ForwardingSink trace_sink{trace_file, /*timed=*/true};
  it.result().setup_s = it.phase("setup", setup_start);
  it.sync_engine_clock(scenario.engine());
  it.setup_layers(setup_start);
  const std::size_t dormant_bytes = scenario.engine().arena_resident_bytes();

  // Untraced runs hand the file sink to the engine directly; the catalog
  // wrapper alone counts the records.
  const auto run_start = it.now();
  if (it.traced()) {
    scenario.run({&catalog_sink, &trace_sink});
  } else {
    scenario.run({&catalog_sink, &trace_file});
  }
  const double run_wall_s = static_cast<double>(it.now() - run_start) / 1e9;
  const auto finish_start = it.now();
  trace_file.finish();
  const double finish_s = it.phase("trace_finish", finish_start, "run");
  it.result().run_s = it.phase("run", run_start);

  const RecordCounts counts = catalog_sink.counts();
  it.record_counts(counts);
  const io::TraceTotals& written = trace_file.totals();
  it.expect(written.signaling == counts.signaling && written.cdr == counts.cdr &&
                written.xdr == counts.xdr && written.dwell == counts.dwell,
            "trace file totals differ from the records the engine emitted");
  if (it.traced()) {
    it.expect(trace_sink.counts() == counts, "sinks saw different record counts");
  }
  const double sink_self_s = catalog_sink.self_s() + trace_sink.self_s();
  it.sink_span("catalog", run_start, catalog_sink.self_s());
  it.sink_span("trace_file", run_start, trace_sink.self_s());
  it.engine_layers(scenario.engine(), dormant_bytes, run_wall_s, sink_self_s, run_start);
  it.layer("core.accumulate_self_s", catalog_sink.self_s());
  it.layer("core.accepted_ratio", ratio(static_cast<double>(accumulator.accepted_records()),
                                        static_cast<double>(counts.total())));
  it.layer("io.encode_self_s", trace_sink.self_s() + finish_s);
  it.layer("io.trace_bytes", static_cast<double>(trace_file.bytes_written()));
  it.layer("io.bytes_per_record", ratio(static_cast<double>(trace_file.bytes_written()),
                                        static_cast<double>(counts.total())));
  const auto& engine = scenario.engine();
  it.layer("ckpt.snapshots", static_cast<double>(engine.checkpoints_written()));
  it.layer("ckpt.write_s", engine.checkpoint_wall_s());
  std::error_code ec;
  const auto snapshot_bytes = std::filesystem::file_size(snapshot_path, ec);
  it.layer("ckpt.snapshot_bytes", ec ? 0.0 : static_cast<double>(snapshot_bytes));
  it.expect(engine.checkpoints_written() > 0, "no snapshot was written");

  // The live census is built outside the timed phases; the accumulator's
  // memory is released before the replay.
  std::uint64_t live_digest = 0;
  {
    const Analysis live = analyse(it, accumulator, scenario.observer_plmn(),
                                  scenario.mvno_plmns(), scenario.tac_catalog(), "live_");
    live_digest = census_digest(live.population);
  }

  const auto analysis_start = it.now();
  core::CatalogAccumulator replayed{{scenario.observer_plmn(), scenario.family_plmns()}};
  core::ReplayStats replay;
  {
    std::ifstream in(trace_path, std::ios::binary);
    it.expect(static_cast<bool>(in), "cannot open " + trace_path);
    replay = core::replay_binary_trace(in, replayed);
  }
  const double replay_s = it.phase("replay", analysis_start, "analysis");
  const Analysis analysis = analyse(it, replayed, scenario.observer_plmn(),
                                    scenario.mvno_plmns(), scenario.tac_catalog(), "");
  it.result().analysis_s = it.phase("analysis", analysis_start);
  census_facts(it, analysis);
  it.scenario_facts(scenario.device_count(), sizes.days);

  const std::uint64_t replayed_digest = census_digest(analysis.population);
  it.expect(replayed_digest == live_digest,
            "replayed census digest " + hex64(replayed_digest) + " != live " +
                hex64(live_digest));
  it.expect(replay.malformed() == 0,
            "replay found " + std::to_string(replay.malformed()) + " malformed records");
  it.expect(replay.delivered == counts.total(),
            "replay delivered " + std::to_string(replay.delivered) + " of " +
                std::to_string(counts.total()) + " records written");
  it.layer("io.replay_malformed", static_cast<double>(replay.malformed()));

  if (it.traced()) {
    // Decode-only pass: the same replay into a counting sink, so decode
    // time separates from accumulate time.
    const auto decode_start = it.now();
    CountingSink discard;
    std::ifstream in(trace_path, std::ios::binary);
    (void)core::replay_binary_trace(in, discard);
    const double decode_s = it.phase("decode_only", decode_start, "analysis");
    it.expect(discard.counts() == counts, "decode-only replay counts differ");
    it.layer("io.decode_s", decode_s);
    it.layer("core.replay_accumulate_s", std::max(0.0, replay_s - decode_s));
  }
}

// --- storm_congestion --------------------------------------------------------
// StormScenario's synchronized meter herd and FOTA tracker fleet against
// the closed-loop congestion model, with 3GPP controls honoured (T3346 +
// EAB, mechanistic backoff) like bench_s3's mitigated arm.
void storm_congestion(Iteration& it) {
  const Sizes sizes = it.smoke() ? kSmokeSizes : kFullSizes;
  static const faults::FaultSchedule kNoFaults{};

  tracegen::StormScenarioConfig config;
  config.seed = it.seed();
  config.meters = sizes.devices * 4 / 5;
  config.trackers = sizes.devices - config.meters;
  config.days = sizes.days;
  config.threads = 1;
  config.checkin_jitter_s = 150.0;
  // bench_s3 starts the FOTA campaign at hour 30 of two days; the one-day
  // horizon here moves it to hour 8 so the retry storm still runs in full.
  config.fota_start_s = 8 * 3600;
  config.fota_failure_p = 0.35;
  config.backoff.enabled = true;
  config.honor_congestion_control = true;
  config.eab_meters = true;

  // Operator ids and count are world properties: a throwaway scenario of the
  // same seed reads them, since the model must exist before the real one.
  // It is not part of setup_s, so set-up covers the same work (one world,
  // its fleets, the sinks) on every workload.
  std::size_t op_count = 0;
  topology::OperatorId observer_radio = topology::kInvalidOperator;
  {
    tracegen::StormScenarioConfig probe = config;
    probe.meters = 8;
    probe.trackers = 2;
    probe.days = 1;
    tracegen::StormScenario scenario{probe};
    op_count = scenario.operator_count();
    observer_radio = scenario.observer_radio();
  }
  faults::CongestionConfig congestion;
  congestion.bucket_s = 60;
  congestion.capacities = {
      {observer_radio, std::max(50.0, 0.2 * static_cast<double>(config.meters))}};
  congestion.overload_exponent = 1.0;
  congestion.eab_threshold = 1.5;
  config.obs = it.obs();
  config.telemetry.trace_path = it.engine_trace_path();

  const auto setup_start = it.now();
  faults::CongestionModel model{congestion, op_count};
  config.congestion = &model;
  tracegen::StormScenario scenario{config};
  const auto& world = scenario.world();
  const cellnet::Plmn observer = world.operators().get(world.well_known().uk_mno).plmn;
  std::vector<cellnet::Plmn> mvnos;
  for (const auto id : world.well_known().uk_mvnos) {
    mvnos.push_back(world.operators().get(id).plmn);
  }
  std::vector<cellnet::Plmn> family = mvnos;
  family.insert(family.begin(), observer);
  faults::ResilienceReport report{world, kNoFaults};
  core::CatalogAccumulator accumulator{{observer, family}};
  ForwardingSink report_sink{report, it.traced()};
  ForwardingSink catalog_sink{accumulator, /*timed=*/true};
  it.result().setup_s = it.phase("setup", setup_start);
  it.sync_engine_clock(scenario.engine());
  it.setup_layers(setup_start);
  const std::size_t dormant_bytes = scenario.engine().arena_resident_bytes();

  const auto run_start = it.now();
  if (it.traced()) {
    scenario.run({&report_sink, &catalog_sink});
  } else {
    scenario.run({&report_sink, &accumulator});
  }
  it.result().run_s = it.phase("run", run_start);
  const RecordCounts counts = report_sink.counts();
  it.record_counts(counts);
  if (it.traced()) {
    it.expect(catalog_sink.counts() == counts, "sinks saw different record counts");
  }
  it.sink_span("resilience_report", run_start, report_sink.self_s());
  it.sink_span("catalog", run_start, catalog_sink.self_s());
  it.engine_layers(scenario.engine(), dormant_bytes, it.result().run_s,
                   report_sink.self_s() + catalog_sink.self_s(), run_start);
  it.layer("core.accumulate_self_s", catalog_sink.self_s());
  it.layer("core.accepted_ratio", ratio(static_cast<double>(accumulator.accepted_records()),
                                        static_cast<double>(counts.total())));
  it.layer("faults.report_self_s", report_sink.self_s());

  const auto analysis_start = it.now();
  const Analysis analysis =
      analyse(it, accumulator, observer, mvnos, scenario.tac_catalog(), "");
  it.result().analysis_s = it.phase("analysis", analysis_start);
  census_facts(it, analysis);
  it.scenario_facts(scenario.device_count(), sizes.days);

  // Congestion ledger and resilience totals, checked for consistency here
  // and against the stored references by run.py.
  const auto& summary = report.summary();
  it.fact("congestion.attach_attempts", model.total_attempts());
  it.fact("congestion.eab_barred", model.total_barred());
  it.fact("congestion.congested_buckets", model.congested_buckets());
  it.fact("report.procedures", summary.procedures);
  it.fact("report.failures", summary.failures);
  it.fact("report.congestion_rejects", summary.congestion_rejects());
  it.layer("faults.attach_attempts", static_cast<double>(model.total_attempts()));
  it.layer("faults.congestion_rejects", static_cast<double>(summary.congestion_rejects()));
  it.layer("faults.eab_barred", static_cast<double>(model.total_barred()));
  it.layer("faults.congested_buckets", static_cast<double>(model.congested_buckets()));

  std::uint64_t by_code = 0;
  for (const auto n : summary.by_code) by_code += n;
  std::uint64_t by_day = 0;
  for (const auto& [day, n] : summary.failures_by_day) by_day += n;
  const auto ok = summary.by_code[static_cast<std::size_t>(signaling::ResultCode::kOk)];
  it.expect(summary.procedures == counts.signaling,
            "report saw " + std::to_string(summary.procedures) + " procedures, engine emitted " +
                std::to_string(counts.signaling) + " signaling records");
  it.expect(by_code == summary.procedures, "report result codes do not sum to procedures");
  it.expect(summary.failures == summary.procedures - ok,
            "report failures != procedures - successes");
  it.expect(by_day == summary.failures, "report failures by day do not sum to failures");
  it.expect(summary.congestion_rejects() > 0 && model.congested_buckets() > 0,
            "the storm never congested the core");
  it.expect(model.total_barred() > 0, "extended access barring never engaged");
  it.expect(summary.congestion_rejects() <= model.total_attempts(),
            "more congestion rejects than attach attempts");
}

void append_json_number(std::string& out, double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  out += buf;
}

}  // namespace

IterationResult run_iteration(const IterationOptions& options) {
  Iteration it{options};
  if (options.workload == "mno_census") {
    mno_census(it);
  } else if (options.workload == "trace_roundtrip") {
    trace_roundtrip(it);
  } else if (options.workload == "storm_congestion") {
    storm_congestion(it);
  } else {
    throw std::invalid_argument("unknown workload: " + options.workload);
  }
  return it.finish();
}

std::string to_json(const IterationResult& result) {
  std::string out = "{\"setup_s\":";
  append_json_number(out, result.setup_s);
  out += ",\"run_s\":";
  append_json_number(out, result.run_s);
  out += ",\"analysis_s\":";
  append_json_number(out, result.analysis_s);
  out += ",\"records\":" + std::to_string(result.records);
  out += ",\"peak_rss_bytes\":" + std::to_string(result.peak_rss_bytes);
  out += ",\"facts\":{";
  for (std::size_t i = 0; i < result.facts.size(); ++i) {
    if (i != 0) out += ',';
    out += "\"" + result.facts[i].name + "\":" + result.facts[i].json;
  }
  out += "},\"failures\":[";
  for (std::size_t i = 0; i < result.failures.size(); ++i) {
    if (i != 0) out += ',';
    out += "\"" + io::json_escape(result.failures[i]) + "\"";
  }
  out += "],\"layers\":{";
  for (std::size_t i = 0; i < result.layers.size(); ++i) {
    if (i != 0) out += ',';
    out += "\"" + result.layers[i].first + "\":";
    append_json_number(out, result.layers[i].second);
  }
  out += "}}";
  return out;
}

}  // namespace perfbench
