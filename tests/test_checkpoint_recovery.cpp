// Crash-recovery suite for the checkpoint subsystem. Two layers:
//
//  * Process-level kill injection: wtr_ckpt_harness (path baked in via
//    WTR_CKPT_HARNESS_PATH) is SIGKILL'd at randomized instants — each kill
//    waits for a *new* snapshot inode to land, then fires after a random
//    extra delay scaled to the uninterrupted run's wall time, so every cycle
//    makes progress, the kill point varies, and every kill lands with work
//    still ahead of it on any host — then restarted with --resume until it
//    completes. The recovered output set (records / metrics / probe /
//    manifest / resilience report) must be byte-identical to an
//    uninterrupted golden run, at threads=1 and threads=4, under a non-empty
//    FaultSchedule with 3GPP backoff enabled.
//
//  * Snapshot integrity: a deliberately truncated, a bit-flipped and a
//    version-skewed snapshot must be rejected with a nonzero exit and a
//    diagnostic on stderr (never a silent wrong resume), and a
//    config-mismatched resume must fail the fleet-fingerprint check. The
//    pristine snapshot then resumes cleanly — proving the rejections were
//    about corruption.
//
//  * In-process resume-across-faults: a faulted run interrupted *inside* an
//    outage window must resume with identical backoff timers (asserted via
//    the full per-agent state blob, which contains every T3411/T3402 timer
//    and the agent RNG), an identical record stream (sim::StreamDigest,
//    whose state rides in the snapshot), and identical ResilienceReport
//    totals — threads 1 and 4.
//
//  * Relayed trace file: a sharded run whose checkpointed WTRTRC1 file is
//    its second sink, so a relay thread writes it, is stopped at a cadence
//    boundary and resumed; the file must equal an uninterrupted threads=1
//    run's.
//
//  * Graceful shutdown: a sink requests shutdown at a fixed record count.
//    One shard without congestion stops between two wakes; sharded runs stop
//    at the next barrier, and a window that reaches the horizon completes
//    the run instead. Either way the resumed (or completed) stream equals
//    the uninterrupted one.

#include <gtest/gtest.h>

#include <fcntl.h>
#include <signal.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <random>
#include <string>
#include <vector>

#include "ckpt/file_sink.hpp"
#include "ckpt/shutdown.hpp"
#include "ckpt/snapshot.hpp"
#include "faults/fault_schedule.hpp"
#include "faults/resilience_report.hpp"
#include "obs/observability.hpp"
#include "sim/stream_digest.hpp"
#include "stats/sim_time.hpp"
#include "tracegen/mno_scenario.hpp"
#include "util/binio.hpp"
#include "util/crc32.hpp"

#include "digest_checks.hpp"
#include "run_dumps.hpp"

#ifndef WTR_CKPT_HARNESS_PATH
#error "WTR_CKPT_HARNESS_PATH must point at the wtr_ckpt_harness binary"
#endif

namespace wtr {
namespace {

namespace fs = std::filesystem;

// --- process plumbing -------------------------------------------------------

std::string make_temp_dir(const std::string& tag) {
  std::string tmpl = "/tmp/wtr_ckpt_" + tag + "_XXXXXX";
  std::vector<char> buf(tmpl.begin(), tmpl.end());
  buf.push_back('\0');
  char* dir = mkdtemp(buf.data());
  EXPECT_NE(dir, nullptr) << "mkdtemp failed for " << tmpl;
  return dir != nullptr ? std::string{dir} : std::string{};
}

std::string read_file(const std::string& path) {
  std::ifstream in{path, std::ios::binary};
  EXPECT_TRUE(in.good()) << "cannot read " << path;
  return std::string{std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>()};
}

void write_file(const std::string& path, const std::string& body) {
  std::ofstream out{path, std::ios::binary | std::ios::trunc};
  out.write(body.data(), static_cast<std::streamsize>(body.size()));
  ASSERT_TRUE(out.good()) << "cannot write " << path;
}

pid_t spawn_harness(const std::vector<std::string>& args,
                    const std::string& stderr_path = {}) {
  std::vector<std::string> full;
  full.emplace_back(WTR_CKPT_HARNESS_PATH);
  full.insert(full.end(), args.begin(), args.end());
  std::vector<char*> argv;
  argv.reserve(full.size() + 1);
  for (auto& s : full) argv.push_back(s.data());
  argv.push_back(nullptr);

  const pid_t pid = fork();
  if (pid == 0) {
    if (!stderr_path.empty()) {
      const int fd =
          ::open(stderr_path.c_str(), O_CREAT | O_WRONLY | O_TRUNC, 0644);
      if (fd >= 0) {
        ::dup2(fd, 2);
        ::close(fd);
      }
    }
    ::execv(argv[0], argv.data());
    _exit(127);
  }
  return pid;
}

/// Blocking wait; returns the exit code, or -signal when killed.
int wait_exit(pid_t pid) {
  int status = 0;
  if (::waitpid(pid, &status, 0) != pid) return -9999;
  if (WIFEXITED(status)) return WEXITSTATUS(status);
  if (WIFSIGNALED(status)) return -WTERMSIG(status);
  return -9999;
}

int run_to_exit(const std::vector<std::string>& args,
                const std::string& stderr_path = {}) {
  return wait_exit(spawn_harness(args, stderr_path));
}

/// Upper bound for the random extra delay before each kill: all kills'
/// delays together stay under half of the uninterrupted run's wall time
/// `golden_wall`, so a fast host cannot finish the run inside the delays and
/// leave a kill with nothing to interrupt. Capped at 120 ms, which slow hosts
/// (sanitizer builds) reach.
int max_kill_delay_ms(std::chrono::steady_clock::duration golden_wall,
                      int target_kills) {
  const auto golden_ms =
      std::chrono::duration_cast<std::chrono::milliseconds>(golden_wall).count();
  return static_cast<int>(
      std::min<std::int64_t>(120, golden_ms / (2 * target_kills)));
}

ino_t snapshot_inode(const std::string& path) {
  struct stat sb{};
  return ::stat(path.c_str(), &sb) == 0 ? sb.st_ino : 0;
}

struct KillRunResult {
  int kills = 0;
  bool completed = false;
  int attempts = 0;
};

/// Run the harness to completion while SIGKILL-ing it `target_kills` times.
/// Each kill waits for a NEW snapshot (atomic rename = new inode) and fires
/// after a random extra delay of at most `max_extra_ms` — a killed attempt
/// therefore always resumes from a strictly newer checkpoint than the
/// previous one, which guarantees forward progress no matter where the kill
/// lands. A child that exits during the delay counts as finished, not killed.
KillRunResult run_with_kills(const std::string& out_dir,
                             const std::vector<std::string>& base_args,
                             int target_kills, int max_extra_ms,
                             std::mt19937& rng) {
  const std::string ckpt = out_dir + "/ckpt.bin";
  std::uniform_int_distribution<int> extra_ms_dist{0, max_extra_ms};
  KillRunResult result;

  while (result.attempts < 40) {
    std::vector<std::string> args = base_args;
    if (fs::exists(ckpt)) args.emplace_back("--resume");
    ++result.attempts;
    const pid_t pid = spawn_harness(args);

    bool killed = false;
    bool reaped = false;
    int status = 0;
    if (result.kills < target_kills) {
      const ino_t start_ino = snapshot_inode(ckpt);
      const int extra_ms = extra_ms_dist(rng);
      for (int waited_ms = 0; waited_ms < 120'000; waited_ms += 5) {
        if (::waitpid(pid, &status, WNOHANG) == pid) {
          reaped = true;  // finished before we could kill it
          break;
        }
        if (snapshot_inode(ckpt) != start_ino) {
          ::usleep(static_cast<useconds_t>(extra_ms) * 1000);
          if (::waitpid(pid, &status, WNOHANG) == pid) {
            reaped = true;  // finished during the extra delay
            break;
          }
          ::kill(pid, SIGKILL);
          killed = true;
          ++result.kills;
          break;
        }
        ::usleep(5'000);
      }
    }

    const int exit_code =
        reaped ? (WIFEXITED(status) ? WEXITSTATUS(status) : -WTERMSIG(status))
               : wait_exit(pid);
    if (killed) {
      EXPECT_EQ(exit_code, -SIGKILL);
      continue;  // resume on the next attempt
    }
    if (exit_code == 0) {
      result.completed = true;
      return result;
    }
    ADD_FAILURE() << "harness exited " << exit_code << " without being killed";
    return result;
  }
  ADD_FAILURE() << "restart budget exhausted";
  return result;
}

void expect_same_file(const std::string& golden_dir, const std::string& crash_dir,
                      const std::string& name) {
  SCOPED_TRACE(name);
  const auto golden = read_file(golden_dir + "/" + name);
  const auto recovered = read_file(crash_dir + "/" + name);
  EXPECT_FALSE(golden.empty());
  EXPECT_EQ(golden, recovered);
}

// --- kill injection ---------------------------------------------------------

void run_kill_recovery(unsigned threads, std::uint32_t rng_seed) {
  const auto golden_dir = make_temp_dir("golden");
  const auto crash_dir = make_temp_dir("crash");
  ASSERT_FALSE(golden_dir.empty());
  ASSERT_FALSE(crash_dir.empty());

  const std::vector<std::string> common{
      "--scenario", "mno",         "--faults", "--devices", "800",
      "--seed",     "42",          "--ckpt-hours", "6",
      "--threads",  std::to_string(threads)};

  auto with_out = [&](const std::string& dir) {
    std::vector<std::string> args = common;
    args.emplace_back("--out");
    args.emplace_back(dir);
    return args;
  };

  const auto golden_start = std::chrono::steady_clock::now();
  ASSERT_EQ(run_to_exit(with_out(golden_dir)), 0);
  const int max_extra_ms =
      max_kill_delay_ms(std::chrono::steady_clock::now() - golden_start, 3);

  std::mt19937 rng{rng_seed};
  const auto result =
      run_with_kills(crash_dir, with_out(crash_dir), 3, max_extra_ms, rng);
  EXPECT_TRUE(result.completed);
  EXPECT_GE(result.kills, 3) << "run finished before enough kills landed — "
                                "raise --devices or lower --ckpt-hours";

  for (const auto* name :
       {"records.bin", "metrics.txt", "probe.txt", "MANIFEST.json",
        "resilience.txt"}) {
    expect_same_file(golden_dir, crash_dir, name);
  }

  fs::remove_all(golden_dir);
  fs::remove_all(crash_dir);
}

TEST(CheckpointRecovery, KillInjectionFaultedThreads1) {
  run_kill_recovery(1, 0xc0ffee);
}

TEST(CheckpointRecovery, KillInjectionFaultedThreads4) {
  run_kill_recovery(4, 0xbeef42);
}

/// Storm variant: kills land while the closed-loop congestion model is live
/// — mid-bucket attempt counts, T3346 timers and FOTA retry state all ride
/// the snapshot. Recovery must still converge to the golden run bytes.
void run_storm_kill_recovery(unsigned threads, std::uint32_t rng_seed) {
  const auto golden_dir = make_temp_dir("storm_golden");
  const auto crash_dir = make_temp_dir("storm_crash");
  ASSERT_FALSE(golden_dir.empty());
  ASSERT_FALSE(crash_dir.empty());

  // Big enough that every kill lands with real work still ahead of it (a
  // too-small fleet finishes before the inode watcher's delay elapses).
  const std::vector<std::string> common{
      "--scenario", "storm",       "--devices", "8000",
      "--seed",     "42",          "--ckpt-hours", "3",
      "--threads",  std::to_string(threads)};

  auto with_out = [&](const std::string& dir) {
    std::vector<std::string> args = common;
    args.emplace_back("--out");
    args.emplace_back(dir);
    return args;
  };

  const auto golden_start = std::chrono::steady_clock::now();
  ASSERT_EQ(run_to_exit(with_out(golden_dir)), 0);
  const int max_extra_ms =
      max_kill_delay_ms(std::chrono::steady_clock::now() - golden_start, 2);

  std::mt19937 rng{rng_seed};
  const auto result =
      run_with_kills(crash_dir, with_out(crash_dir), 2, max_extra_ms, rng);
  EXPECT_TRUE(result.completed);
  EXPECT_GE(result.kills, 2) << "run finished before enough kills landed — "
                                "raise --devices or lower --ckpt-hours";

  for (const auto* name : {"records.bin", "metrics.txt", "probe.txt",
                           "MANIFEST.json"}) {
    expect_same_file(golden_dir, crash_dir, name);
  }
  // The storm must actually have congested, or the kills never exercised
  // the model's snapshot path.
  EXPECT_NE(read_file(golden_dir + "/metrics.txt")
                .find("congestion.buckets_congested"),
            std::string::npos);

  fs::remove_all(golden_dir);
  fs::remove_all(crash_dir);
}

TEST(CheckpointRecovery, KillInjectionStormThreads1) {
  run_storm_kill_recovery(1, 0x570f31);
}

TEST(CheckpointRecovery, KillInjectionStormThreads2) {
  run_storm_kill_recovery(2, 0x570f32);
}

// --- snapshot integrity -----------------------------------------------------

TEST(CheckpointRecovery, CorruptSnapshotsAreRejected) {
  const auto dir = make_temp_dir("corrupt");
  ASSERT_FALSE(dir.empty());
  const std::string ckpt = dir + "/ckpt.bin";
  const std::string errs = dir + "/stderr.txt";

  const std::vector<std::string> base{"--scenario", "mno", "--devices", "200",
                                      "--seed", "7", "--out", dir};

  // Produce a deterministic snapshot via the in-process interrupt.
  {
    auto args = base;
    args.insert(args.end(), {"--stop-hours", "24"});
    ASSERT_EQ(run_to_exit(args), 3);
    ASSERT_TRUE(fs::exists(ckpt));
  }
  const std::string pristine = read_file(ckpt);
  ASSERT_GT(pristine.size(), 64u);

  auto resume_args = base;
  resume_args.emplace_back("--resume");

  {  // Torn file: truncated to half its length.
    write_file(ckpt, pristine.substr(0, pristine.size() / 2));
    EXPECT_EQ(run_to_exit(resume_args, errs), 4);
    EXPECT_NE(read_file(errs).find("snapshot"), std::string::npos);
  }
  {  // Single bit flip in the middle of the payload.
    std::string flipped = pristine;
    flipped[flipped.size() / 2] ^= 0x10;
    write_file(ckpt, flipped);
    EXPECT_EQ(run_to_exit(resume_args, errs), 4);
    EXPECT_NE(read_file(errs).find("snapshot"), std::string::npos);
  }
  {  // Version skew: a CRC-clean header declaring format version 2.
    std::string skewed = pristine;
    util::BinWriter version;
    version.u32(2);
    skewed.replace(8, 4, version.bytes());  // after the 8-byte magic
    util::BinWriter header_crc;
    header_crc.u32(util::crc32(std::string_view(skewed).substr(0, 24)));
    skewed.replace(24, 4, header_crc.bytes());
    write_file(ckpt, skewed);
    EXPECT_EQ(run_to_exit(resume_args, errs), 4);
    const auto diagnostic = read_file(errs);
    EXPECT_NE(diagnostic.find("snapshot rejected"), std::string::npos) << diagnostic;
    EXPECT_NE(diagnostic.find("format version 2 unsupported"), std::string::npos)
        << diagnostic;
  }
  {  // Pristine bytes but a different world: fleet fingerprint must reject.
    write_file(ckpt, pristine);
    std::vector<std::string> wrong{"--scenario", "mno",  "--devices", "200",
                                   "--seed",     "8",    "--out",     dir,
                                   "--resume"};
    EXPECT_EQ(run_to_exit(wrong, errs), 4);
  }
  {  // Sanity: the pristine snapshot with the right config resumes cleanly.
    write_file(ckpt, pristine);
    EXPECT_EQ(run_to_exit(resume_args), 0);
  }

  fs::remove_all(dir);
}

// --- in-process resume across an outage window ------------------------------

/// Every mutable per-agent field — RNG words, EMM machine, every backoff
/// timer — serialized for the whole fleet. Blob equality is the strongest
/// possible "same backoff timers after resume" statement.
std::string fleet_state_blob(const sim::Engine& engine) {
  util::BinWriter out;
  for (std::size_t i = 0; i < engine.agent_count(); ++i) {
    engine.agent(i).save_state(out);
  }
  return out.take();
}

tracegen::MnoScenarioConfig faulted_config(unsigned threads,
                                           const faults::FaultSchedule* faults,
                                           obs::Observability obs) {
  tracegen::MnoScenarioConfig config;
  config.seed = 42;
  config.total_devices = 400;
  config.threads = threads;
  config.build_coverage = false;
  config.faults = faults;
  config.backoff.enabled = true;
  config.obs = obs;
  return config;
}

struct FaultedCapture {
  sim::StreamDigest stream;
  std::string metrics;
  std::string probe;
  std::string resilience;
  std::string fleet;
};


FaultedCapture run_faulted_uninterrupted(unsigned threads,
                                         const faults::FaultSchedule& schedule) {
  obs::RunObservation observation;
  tracegen::MnoScenario scenario{
      faulted_config(threads, &schedule, observation.view())};
  sim::StreamDigest sink;
  scenario.engine().register_checkpointable("stream", &sink);
  faults::ResilienceReport report{scenario.world(), schedule,
                                  &observation.metrics()};
  scenario.engine().register_checkpointable("resilience", &report);
  scenario.run({&sink, &report});
  return {sink, dump_metrics(observation.metrics()),
          dump_probe(observation.probe()), dump_resilience(report.summary()),
          fleet_state_blob(scenario.engine())};
}

TEST(CheckpointRecovery, ResumeInsideOutageWindowIsDeterministic) {
  // Schedule: full UK outage on day 3, hours 8..14 — the interrupt lands at
  // hour 82 (= day 3 + 10h), squarely inside the window, while rejected
  // attaches are sitting on live backoff timers.
  constexpr stats::SimTime kHour = 3600;
  constexpr std::int64_t kStopHours = 3 * 24 + 10;
  faults::FaultSchedule schedule;
  {
    tracegen::MnoScenarioConfig probe_config;
    probe_config.seed = 42;
    probe_config.total_devices = 10;
    probe_config.build_coverage = false;
    tracegen::MnoScenario throwaway{probe_config};
    const auto uk = throwaway.world().well_known().uk_mno;
    schedule.add_outage(uk, stats::day_start(3) + 8 * kHour,
                        stats::day_start(3) + 14 * kHour, 1.0);
    schedule.add_storm(uk, stats::day_start(5) + 10 * kHour,
                       stats::day_start(5) + 16 * kHour, 0.35);
  }

  const auto golden = run_faulted_uninterrupted(1, schedule);
  expect_families(golden.stream);

  for (const unsigned threads : {1u, 4u}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    const auto dir = make_temp_dir("outage");
    ASSERT_FALSE(dir.empty());
    const std::string ckpt = dir + "/ckpt.bin";

    // Phase 1: run to the in-process interrupt inside the outage window.
    {
      obs::RunObservation observation;
      auto config = faulted_config(threads, &schedule, observation.view());
      config.ckpt.path = ckpt;
      config.ckpt.stop_after_sim_hours = kStopHours;
      tracegen::MnoScenario scenario{config};
      sim::StreamDigest sink;
      scenario.engine().register_checkpointable("stream", &sink);
      faults::ResilienceReport report{scenario.world(), schedule,
                                      &observation.metrics()};
      scenario.engine().register_checkpointable("resilience", &report);
      scenario.run({&sink, &report});
      ASSERT_TRUE(scenario.engine().interrupted());
      ASSERT_TRUE(fs::exists(ckpt));
      EXPECT_GT(sink.records(), 0u);
      EXPECT_LT(sink.records(), golden.stream.records());
    }

    // Phase 2: identical construction, restore (the digest continues from
    // the snapshot), run to the horizon.
    obs::RunObservation observation;
    tracegen::MnoScenario scenario{
        faulted_config(threads, &schedule, observation.view())};
    sim::StreamDigest sink;
    scenario.engine().register_checkpointable("stream", &sink);
    faults::ResilienceReport report{scenario.world(), schedule,
                                    &observation.metrics()};
    scenario.engine().register_checkpointable("resilience", &report);
    scenario.resume_from(ckpt);
    EXPECT_TRUE(scenario.engine().resumed());
    scenario.run({&sink, &report});
    EXPECT_FALSE(scenario.engine().interrupted());

    EXPECT_EQ(sink, golden.stream);
    EXPECT_EQ(dump_metrics(observation.metrics()), golden.metrics);
    EXPECT_EQ(dump_probe(observation.probe()), golden.probe);
    EXPECT_EQ(dump_resilience(report.summary()), golden.resilience);
    EXPECT_EQ(fleet_state_blob(scenario.engine()), golden.fleet);

    fs::remove_all(dir);
  }
}

// --- relayed trace file --------------------------------------------------------

/// A run into a StreamDigest and then a checkpointed trace file, the second
/// sink and so, with threads > 1, the relayed one, with an 8 h cadence.
/// `stop_hours` > 0 stops the run there; `resume` continues it from the
/// snapshot. Sealed once the run completes. Returns the digest.
sim::StreamDigest run_trace_file(unsigned threads, const std::string& dir,
                                 const std::string& trace_path, std::int64_t stop_hours,
                                 bool resume) {
  auto config = faulted_config(threads, nullptr, {});
  config.ckpt.every_sim_hours = 8;
  config.ckpt.path = dir + "/ckpt.bin";
  config.ckpt.stop_after_sim_hours = stop_hours;
  tracegen::MnoScenario scenario{config};
  sim::StreamDigest digest;
  ckpt::BinaryTraceFileSink file{trace_path, resume};
  scenario.engine().register_checkpointable("stream", &digest);
  scenario.engine().register_checkpointable("trace_file", &file);
  if (resume) scenario.resume_from(config.ckpt.path);
  scenario.run({&digest, &file});
  EXPECT_EQ(scenario.engine().interrupted(), stop_hours > 0);
  if (!scenario.engine().interrupted()) file.finish();
  return digest;
}

TEST(CheckpointRecovery, RelayedTraceFileResumesByteIdentically) {
  const auto dir = make_temp_dir("relayed");
  ASSERT_FALSE(dir.empty());
  const std::string golden_path = dir + "/golden.wtr";
  const std::string resumed_path = dir + "/resumed.wtr";
  // The uninterrupted run writes its file on the calling thread (one shard,
  // no relay) and snapshots at the same cadence, so its block flushes land
  // where the interrupted run's do.
  const auto golden = run_trace_file(1, dir, golden_path, 0, false);
  expect_families(golden);

  // Two shards: stop on a cadence boundary, then resume to the horizon.
  const auto cut = run_trace_file(2, dir, resumed_path, 16, false);
  EXPECT_GT(cut.records(), 0u);
  EXPECT_LT(cut.records(), golden.records());
  EXPECT_EQ(run_trace_file(2, dir, resumed_path, 0, true), golden);

  const auto golden_bytes = read_file(golden_path);
  EXPECT_FALSE(golden_bytes.empty());
  EXPECT_TRUE(read_file(resumed_path) == golden_bytes)
      << "resumed trace file differs from the uninterrupted one";
  fs::remove_all(dir);
}

// --- graceful shutdown -------------------------------------------------------

/// Requests a graceful shutdown on its `at`-th record — the in-process
/// stand-in for a SIGINT landing mid-run.
class ShutdownAtRecord final : public sim::RecordSink {
 public:
  explicit ShutdownAtRecord(std::uint64_t at) : at_(at) {}

  void on_signaling(const signaling::SignalingTransaction&, bool) override { count(); }
  void on_cdr(const records::Cdr&) override { count(); }
  void on_xdr(const records::Xdr&) override { count(); }
  void on_dwell(signaling::DeviceHash, std::int32_t, cellnet::Plmn,
                const cellnet::GeoPoint&, double) override {
    count();
  }

 private:
  void count() {
    if (++seen_ == at_) ckpt::request_shutdown();
  }

  std::uint64_t at_;
  std::uint64_t seen_ = 0;
};

struct ShutdownCapture {
  sim::StreamDigest stream;
  std::string metrics;
  bool interrupted = false;
};

/// One MNO run into a checkpointed StreamDigest. `shutdown_at` > 0 adds the
/// shutdown trigger (the flag is reset before returning); a non-empty
/// `resume` path resumes from that snapshot first.
ShutdownCapture run_shutdown_case(unsigned threads, const sim::CheckpointOptions& ckpt,
                                  std::uint64_t shutdown_at,
                                  const std::string& resume = {}) {
  obs::RunObservation observation;
  auto config = faulted_config(threads, nullptr, observation.view());
  config.ckpt = ckpt;
  tracegen::MnoScenario scenario{config};
  ShutdownCapture cap;
  scenario.engine().register_checkpointable("stream", &cap.stream);
  if (!resume.empty()) scenario.resume_from(resume);
  ShutdownAtRecord trigger{shutdown_at};
  std::vector<sim::RecordSink*> sinks{&cap.stream};
  if (shutdown_at > 0) sinks.push_back(&trigger);
  scenario.run(sinks);
  ckpt::reset_shutdown_flag();
  cap.metrics = dump_metrics(observation.metrics());
  cap.interrupted = scenario.engine().interrupted();
  return cap;
}

/// Early enough to land inside the first 6 h window of the 400-device run.
constexpr std::uint64_t kShutdownAt = 200;

/// Shutdown at record kShutdownAt, then resume to the horizon: the stream
/// and the metrics must equal the uninterrupted run's. Returns the
/// interrupted run's digest.
sim::StreamDigest interrupt_and_resume(unsigned threads, std::int64_t cadence_hours) {
  const auto golden = run_shutdown_case(1, {}, 0);
  expect_families(golden.stream);
  const auto dir = make_temp_dir("shutdown");
  sim::CheckpointOptions ckpt;
  ckpt.path = dir + "/ckpt.bin";
  ckpt.every_sim_hours = cadence_hours;

  const auto cut = run_shutdown_case(threads, ckpt, kShutdownAt);
  EXPECT_TRUE(cut.interrupted);
  EXPECT_LT(cut.stream.records(), golden.stream.records());

  const auto resumed = run_shutdown_case(threads, ckpt, 0, ckpt.path);
  EXPECT_FALSE(resumed.interrupted);
  EXPECT_EQ(resumed.stream, golden.stream);
  EXPECT_EQ(resumed.metrics, golden.metrics);
  fs::remove_all(dir);
  return cut.stream;
}

TEST(CheckpointRecovery, GracefulShutdownOneShardStopsBetweenWakes) {
  // No cadence and no congestion: the only barrier is the horizon, so an
  // interrupted run must have stopped at the first wake boundary after the
  // trigger, with the triggering wake's records (a handful) still delivered.
  const auto cut = interrupt_and_resume(1, 0);
  EXPECT_GE(cut.records(), kShutdownAt);
  EXPECT_LT(cut.records(), kShutdownAt + 100);
}

TEST(CheckpointRecovery, GracefulShutdownShardedStopsAtNextBarrier) {
  // Two shards, 6 h cadence: the request lands while the first window is
  // replayed, so the run stops at its 6 h barrier — exactly where a
  // stop-after-6 h run stops.
  const auto cut = interrupt_and_resume(2, 6);
  const auto dir = make_temp_dir("stop6");
  sim::CheckpointOptions stop6;
  stop6.path = dir + "/ckpt.bin";
  stop6.stop_after_sim_hours = 6;
  const auto at_barrier = run_shutdown_case(2, stop6, 0);
  EXPECT_TRUE(at_barrier.interrupted);
  EXPECT_EQ(cut, at_barrier.stream);
  EXPECT_GT(cut.records(), kShutdownAt);
  fs::remove_all(dir);
}

TEST(CheckpointRecovery, GracefulShutdownInHorizonWindowCompletesRun) {
  // Two shards, no cadence: the one window ends at the horizon, so the
  // request is honoured only there — and a window that reaches the horizon
  // completes the run, with its run-summary metrics.
  const auto golden = run_shutdown_case(1, {}, 0);
  expect_families(golden.stream);
  const auto dir = make_temp_dir("horizon");
  sim::CheckpointOptions ckpt;
  ckpt.path = dir + "/ckpt.bin";
  const auto run = run_shutdown_case(2, ckpt, kShutdownAt);
  EXPECT_FALSE(run.interrupted);
  EXPECT_FALSE(fs::exists(ckpt.path));
  EXPECT_EQ(run.stream, golden.stream);
  EXPECT_EQ(run.metrics, golden.metrics);
  fs::remove_all(dir);
}

}  // namespace
}  // namespace wtr
