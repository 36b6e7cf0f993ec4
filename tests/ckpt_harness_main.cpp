// wtr_ckpt_harness: the child process the crash-recovery tests and the
// supervised-run script drive. It runs one scenario with checkpointing
// enabled, streaming records into a crash-safe WTRTRC1 trace file
// (ckpt::BinaryTraceFileSink), and exits with a small, scriptable contract:
//
//   exit 0  run reached the horizon; records.bin (sealed) / metrics.txt /
//           probe.txt / MANIFEST.json (+ resilience.txt when faulted) are
//           complete
//   exit 2  usage error
//   exit 3  run was interrupted (SIGINT/SIGTERM or --stop-hours); the final
//           checkpoint and the flushed record prefix are on disk
//   exit 4  resume failed (corrupt/mismatched snapshot) — diagnostic on
//           stderr, nothing resumed
//
// MANIFEST.json is written with timers detached and a fixed git describe so
// an interrupted+resumed run can be byte-compared against an uninterrupted
// one; the volatile recovery bookkeeping (resumed_from, checkpoints_written,
// checkpoint_wall_s) goes to RUN_META.json instead.
//
// A faulted run (--faults) injects the same deterministic schedule the
// parallel-engine tests use — a full UK outage on day 3 (hours 8..14) and a
// 35% registration storm on day 5 (hours 10..16) — with mechanistic 3GPP
// backoff enabled, and accumulates a checkpointed ResilienceReport.

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "ckpt/file_sink.hpp"
#include "ckpt/shutdown.hpp"
#include "ckpt/snapshot.hpp"
#include "faults/congestion.hpp"
#include "faults/fault_schedule.hpp"
#include "faults/resilience_report.hpp"
#include "obs/heartbeat.hpp"
#include "obs/observability.hpp"
#include "obs/run_manifest.hpp"
#include "obs/trace.hpp"
#include "stats/sim_time.hpp"
#include "tracegen/m2m_platform_scenario.hpp"
#include "tracegen/mno_scenario.hpp"
#include "tracegen/smip_scenario.hpp"
#include "tracegen/storm_scenario.hpp"

#include "run_dumps.hpp"

namespace {

using namespace wtr;

struct Options {
  std::string scenario = "mno";  // mno | smip | platform | storm
  std::string out_dir;
  std::string ckpt_path;           // default: <out_dir>/ckpt.bin
  std::int64_t ckpt_hours = 0;     // snapshot cadence (0 = off)
  std::int64_t stop_hours = 0;     // deterministic in-process interrupt
  unsigned threads = 1;
  std::size_t devices = 600;
  std::int32_t days = 0;  // 0 = the scenario's default horizon
  std::uint64_t seed = 42;
  bool faults = false;
  bool resume = false;
  std::string trace_path;      // flight-recorder export (empty = off)
  std::string heartbeat_path;  // live progress file (empty = off)
  double heartbeat_interval_s = 1.0;
};

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --out DIR [--scenario mno|smip|platform|storm] [--ckpt PATH]\n"
               "          [--ckpt-hours N] [--stop-hours N] [--threads K]\n"
               "          [--devices N] [--days N] [--seed N] [--faults] [--resume]\n"
               "          [--trace PATH] [--heartbeat PATH] [--heartbeat-interval S]\n",
               argv0);
  return 2;
}

bool parse(int argc, char** argv, Options& opt) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> const char* { return i + 1 < argc ? argv[++i] : nullptr; };
    if (arg == "--faults") {
      opt.faults = true;
    } else if (arg == "--resume") {
      opt.resume = true;
    } else if (arg == "--scenario") {
      const char* v = value();
      if (!v) return false;
      opt.scenario = v;
    } else if (arg == "--out") {
      const char* v = value();
      if (!v) return false;
      opt.out_dir = v;
    } else if (arg == "--ckpt") {
      const char* v = value();
      if (!v) return false;
      opt.ckpt_path = v;
    } else if (arg == "--ckpt-hours") {
      const char* v = value();
      if (!v) return false;
      opt.ckpt_hours = std::strtoll(v, nullptr, 10);
    } else if (arg == "--stop-hours") {
      const char* v = value();
      if (!v) return false;
      opt.stop_hours = std::strtoll(v, nullptr, 10);
    } else if (arg == "--threads") {
      const char* v = value();
      if (!v) return false;
      opt.threads = static_cast<unsigned>(std::strtoul(v, nullptr, 10));
    } else if (arg == "--devices") {
      const char* v = value();
      if (!v) return false;
      opt.devices = static_cast<std::size_t>(std::strtoull(v, nullptr, 10));
    } else if (arg == "--days") {
      const char* v = value();
      if (!v) return false;
      opt.days = static_cast<std::int32_t>(std::strtol(v, nullptr, 10));
      if (opt.days <= 0) return false;
    } else if (arg == "--seed") {
      const char* v = value();
      if (!v) return false;
      opt.seed = std::strtoull(v, nullptr, 10);
    } else if (arg == "--trace") {
      const char* v = value();
      if (!v) return false;
      opt.trace_path = v;
    } else if (arg == "--heartbeat") {
      const char* v = value();
      if (!v) return false;
      opt.heartbeat_path = v;
    } else if (arg == "--heartbeat-interval") {
      const char* v = value();
      if (!v) return false;
      opt.heartbeat_interval_s = std::strtod(v, nullptr);
    } else {
      return false;
    }
  }
  if (opt.out_dir.empty()) return false;
  if (opt.scenario != "mno" && opt.scenario != "smip" && opt.scenario != "platform" &&
      opt.scenario != "storm") {
    return false;
  }
  if (opt.ckpt_path.empty()) opt.ckpt_path = opt.out_dir + "/ckpt.bin";
  return true;
}

void write_text(const std::string& path, const std::string& body) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (!f) {
    throw std::runtime_error("cannot open " + path + ": " + std::strerror(errno));
  }
  if (!body.empty() && std::fwrite(body.data(), 1, body.size(), f) != body.size()) {
    std::fclose(f);
    throw std::runtime_error("short write to " + path);
  }
  std::fclose(f);
}

/// The deterministic fault schedule the byte-identity tests use: a total UK
/// outage plus a registration storm, targeted at the world's uk_mno id. The
/// id is read from a throwaway 10-device scenario built with the same world
/// seed — identically-configured worlds build identically, so the id matches
/// the real run's world (the schedule must exist before the real scenario is
/// constructed because the engine borrows it at construction time).
void build_fault_schedule(const Options& opt, faults::FaultSchedule& schedule) {
  constexpr stats::SimTime kHour = 3600;
  topology::OperatorId uk_mno = topology::kInvalidOperator;
  if (opt.scenario == "smip") {
    tracegen::SmipScenarioConfig probe_config;
    probe_config.seed = opt.seed;
    probe_config.total_devices = 10;
    probe_config.build_coverage = false;
    tracegen::SmipScenario throwaway{probe_config};
    uk_mno = throwaway.world().well_known().uk_mno;
  } else {
    tracegen::MnoScenarioConfig probe_config;
    probe_config.seed = opt.seed;
    probe_config.total_devices = 10;
    probe_config.build_coverage = false;
    tracegen::MnoScenario throwaway{probe_config};
    uk_mno = throwaway.world().well_known().uk_mno;
  }
  schedule.add_outage(uk_mno, stats::day_start(3) + 8 * kHour,
                      stats::day_start(3) + 14 * kHour, 1.0);
  schedule.add_storm(uk_mno, stats::day_start(5) + 10 * kHour,
                     stats::day_start(5) + 16 * kHour, 0.35);
}

/// The closed-loop overload model the storm scenario runs against. Built
/// before the real scenario (the engine borrows it at construction); the
/// observer's radio-network id and the operator count come from a throwaway
/// tiny scenario with the same world seed. The per-bucket capacity scales
/// with the fleet so any --devices value actually congests.
std::unique_ptr<faults::CongestionModel> build_congestion_model(
    const Options& opt, obs::MetricsRegistry* metrics) {
  tracegen::StormScenarioConfig probe_config;
  probe_config.seed = opt.seed;
  probe_config.meters = 8;
  probe_config.trackers = 2;
  probe_config.days = 1;
  tracegen::StormScenario probe{probe_config};
  faults::CongestionConfig config;
  config.bucket_s = 60;
  config.capacities = {{probe.observer_radio(),
                        std::max(50.0, 0.16 * static_cast<double>(opt.devices))}};
  return std::make_unique<faults::CongestionModel>(config, probe.operator_count(),
                                                   nullptr, metrics);
}

std::unique_ptr<tracegen::ScenarioBase> make_scenario(
    const Options& opt, const faults::FaultSchedule* faults,
    faults::CongestionModel* congestion, obs::Observability obs) {
  sim::CheckpointOptions ckpt;
  ckpt.every_sim_hours = opt.ckpt_hours;
  ckpt.path = opt.ckpt_path;
  ckpt.stop_after_sim_hours = opt.stop_hours;
  sim::TelemetryOptions telemetry;
  telemetry.trace_path = opt.trace_path;
  telemetry.heartbeat_path = opt.heartbeat_path;
  telemetry.heartbeat_every_wall_s = opt.heartbeat_interval_s;
  if (opt.scenario == "storm") {
    tracegen::StormScenarioConfig config;
    config.seed = opt.seed;
    config.trackers = opt.devices / 5;
    config.meters = opt.devices - config.trackers;
    config.threads = opt.threads;
    if (opt.days > 0) config.days = opt.days;
    config.checkin_jitter_s = 150.0;
    config.fota_start_s = 30 * 3600;
    config.fota_failure_p = 0.35;
    config.backoff.enabled = true;
    config.congestion = congestion;
    config.faults = faults;
    config.obs = obs;
    config.ckpt = ckpt;
    config.telemetry = telemetry;
    return std::make_unique<tracegen::StormScenario>(config);
  }
  if (opt.scenario == "smip") {
    tracegen::SmipScenarioConfig config;
    config.seed = opt.seed;
    config.total_devices = opt.devices;
    config.threads = opt.threads;
    if (opt.days > 0) config.days = opt.days;
    config.faults = faults;
    config.backoff.enabled = opt.faults;
    config.obs = obs;
    config.ckpt = ckpt;
    config.telemetry = telemetry;
    return std::make_unique<tracegen::SmipScenario>(config);
  }
  if (opt.scenario == "platform") {
    tracegen::M2MPlatformConfig config;
    config.seed = opt.seed;
    config.total_devices = opt.devices;
    config.threads = opt.threads;
    if (opt.days > 0) config.days = opt.days;
    config.faults = faults;
    config.obs = obs;
    config.ckpt = ckpt;
    config.telemetry = telemetry;
    return std::make_unique<tracegen::M2MPlatformScenario>(config);
  }
  tracegen::MnoScenarioConfig config;
  config.seed = opt.seed;
  config.total_devices = opt.devices;
  config.threads = opt.threads;
  if (opt.days > 0) config.days = opt.days;
  config.build_coverage = false;
  config.faults = faults;
  config.backoff.enabled = opt.faults;
  config.obs = obs;
  config.ckpt = ckpt;
  config.telemetry = telemetry;
  return std::make_unique<tracegen::MnoScenario>(config);
}

void write_run_meta(const Options& opt, const sim::Engine& engine) {
  std::string meta = "{\n";
  meta += "  \"interrupted\": " + std::string(engine.interrupted() ? "true" : "false") +
          ",\n";
  meta += "  \"resumed\": " + std::string(engine.resumed() ? "true" : "false") + ",\n";
  meta += "  \"resumed_from\": \"" + engine.resumed_from() + "\",\n";
  meta += "  \"checkpoints_written\": " + std::to_string(engine.checkpoints_written()) +
          ",\n";
  meta += "  \"checkpoint_wall_s\": " + std::to_string(engine.checkpoint_wall_s()) + "\n";
  meta += "}\n";
  write_text(opt.out_dir + "/RUN_META.json", meta);
}

int run_harness(const Options& opt) {
  obs::RunObservation observation;

  // The engine takes over the heartbeat once run() starts; this first beat
  // exists so the supervisor sees a fresh file during the (potentially
  // long) world/fleet build instead of mistaking startup for a hang.
  if (!opt.heartbeat_path.empty()) {
    obs::HeartbeatWriter boot{opt.heartbeat_path, 0.0};
    obs::HeartbeatStatus status;
    status.phase = "boot";
    boot.write_now(status);
  }

  faults::FaultSchedule schedule;
  if (opt.faults) build_fault_schedule(opt, schedule);

  std::unique_ptr<faults::CongestionModel> congestion;
  if (opt.scenario == "storm") {
    congestion = build_congestion_model(opt, &observation.metrics());
  }

  auto scenario = make_scenario(opt, opt.faults ? &schedule : nullptr,
                                congestion.get(), observation.view());

  // Crash-safe record sink: its byte offset rides in every checkpoint, so a
  // resume truncates records.bin back to exactly the checkpointed prefix.
  ckpt::BinaryTraceFileSink sink{opt.out_dir + "/records.bin", opt.resume};
  scenario->engine().register_checkpointable("trace_sink", &sink);
  sink.set_trace(scenario->engine().flight_recorder(),
                 obs::FlightRecorder::kEngineTrack);

  std::unique_ptr<faults::ResilienceReport> report;
  if (opt.faults) {
    report = std::make_unique<faults::ResilienceReport>(scenario->world(), schedule,
                                                        &observation.metrics());
    scenario->engine().register_checkpointable("resilience", report.get());
  }

  // Registration order above must match the save-time order; resume_from
  // verifies the recorded names and restores in-place.
  if (opt.resume) scenario->resume_from(opt.ckpt_path);

  ckpt::install_shutdown_handlers();

  std::vector<sim::RecordSink*> sinks{&sink};
  if (report) sinks.push_back(report.get());
  scenario->run(sinks);

  write_run_meta(opt, scenario->engine());

  if (scenario->engine().interrupted()) {
    // The final checkpoint already flushed+fsynced the sink; make the
    // record prefix durable even when no checkpoint path was configured.
    sink.flush_and_sync();
    return 3;
  }

  // Completed: seal the trace with its end marker (interrupted runs above
  // leave it unsealed — a resume truncates and appends to it).
  sink.finish();
  // The dumps leave out the wall-clock trace.* metrics: these files are
  // byte-compared between interrupted+resumed and uninterrupted runs.
  write_text(opt.out_dir + "/metrics.txt", dump_metrics(observation.metrics()));
  write_text(opt.out_dir + "/probe.txt", dump_probe(observation.probe()));
  if (report) {
    write_text(opt.out_dir + "/resilience.txt", dump_resilience(report->summary()));
  }

  // Timers deliberately detached and git describe pinned: the manifest must
  // be byte-identical between an uninterrupted run and a killed+resumed one.
  obs::RunManifest manifest{"ckpt-harness"};
  manifest.set_seed(opt.seed);
  manifest.set_scale(opt.devices);
  manifest.set_git_describe("fixed");
  manifest.attach_metrics(&observation.metrics());
  manifest.attach_probe(&observation.probe());
  manifest.add_result("records_total", observation.probe().records_total());
  manifest.add_result("wakes", scenario->engine().wakes_processed());
  write_text(opt.out_dir + "/MANIFEST.json", manifest.to_json());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  if (!parse(argc, argv, opt)) return usage(argv[0]);
  try {
    return run_harness(opt);
  } catch (const wtr::ckpt::SnapshotError& e) {
    std::fprintf(stderr, "wtr_ckpt_harness: snapshot rejected: %s\n", e.what());
    return 4;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "wtr_ckpt_harness: fatal: %s\n", e.what());
    return 4;
  }
}
