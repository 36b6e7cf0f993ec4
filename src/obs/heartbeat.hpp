#pragma once

// Live progress heartbeat: a single-line JSON file rewritten atomically
// (tmp + rename, no fsync — a heartbeat that blocks on disk flushes would
// defeat its purpose) so an external supervisor can distinguish a *hung*
// child (stale file mtime) from a merely *slow* one (fresh mtime, slow
// sim-time progress). scripts/run_supervised.sh polls it when
// WTR_SUPERVISE_HANG_TIMEOUT_S is set; the format doubles as the liveness
// primitive for a future resident simulation service (deferred in the
// ROADMAP).
//
// Like the flight recorder, the heartbeat observes and never perturbs:
// no RNG, wall-clock values go only to this side file (never into records,
// metrics dumps, or snapshots), so output stays byte-identical whether a
// heartbeat is configured or not.

#include <cstdint>
#include <string>

namespace wtr::obs {

/// What the engine knows about its own progress at a beat.
struct HeartbeatStatus {
  const char* phase = "run";       // init | run | checkpoint | done | interrupted
  double sim_time_s = 0.0;         // simulated seconds completed
  double horizon_s = 0.0;          // simulated seconds planned (0 = unknown)
  std::uint64_t wakes = 0;         // wake events processed
  std::uint64_t records = 0;       // signaling records emitted
  double last_checkpoint_s = -1.0; // sim time of last durable snapshot (-1 = none)
  std::uint64_t checkpoints_written = 0;
};

class HeartbeatWriter {
 public:
  /// Beats more frequent than `min_interval_s` of wall time are dropped by
  /// maybe_write (write_now always writes — use it for phase transitions).
  HeartbeatWriter(std::string path, double min_interval_s);

  /// Rate-limited beat; returns true when a write actually happened.
  bool maybe_write(const HeartbeatStatus& status);

  /// Unconditional beat (initial "init" line, final "done"/"interrupted").
  bool write_now(const HeartbeatStatus& status);

  [[nodiscard]] const std::string& path() const noexcept { return path_; }
  [[nodiscard]] std::uint64_t beats_written() const noexcept { return beats_; }

 private:
  std::string path_;
  std::string tmp_path_;
  double min_interval_s_;
  std::int64_t last_write_ns_ = -1;  // steady-clock; -1 = never written
  std::uint64_t beats_ = 0;
};

}  // namespace wtr::obs
