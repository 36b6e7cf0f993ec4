#pragma once

// The benchmark's three workloads. One call to run_iteration() is one
// measured pass of one workload — set-up, run, analysis, output checks —
// and is meant to be the only work of its process, so the process's peak
// RSS is the workload's. run.py starts one process per iteration and takes
// medians across them.

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

struct IterationOptions {
  std::string workload;  // mno_census | trace_roundtrip | storm_congestion
  std::uint64_t seed = 0;
  /// Traced iteration: sink wrappers time their calls, obs and the engine
  /// flight recorder are on, and trace_roundtrip adds a decode-only replay.
  bool traced = false;
  /// Tiny populations, for the self-test's smoke pass.
  bool smoke = false;
  /// Existing directory for the iteration's files (trace, snapshot, engine
  /// export); they are deleted before run_iteration returns.
  std::string work_dir;
  /// Traced only: where the Chrome trace-event span export goes (empty = none).
  std::string spans_path;
};

/// A deterministic output of the iteration, kept as its JSON literal.
struct Fact {
  std::string name;
  std::string json;
};

struct IterationResult {
  double setup_s = 0.0;
  /// Wall time of run() (plus closing the trace file on trace_roundtrip).
  double run_s = 0.0;
  double analysis_s = 0.0;
  /// Records the engine emitted, counted once however many sinks it has.
  std::uint64_t records = 0;
  std::uint64_t peak_rss_bytes = 0;
  /// Census digest and per-family record counts, plus the congestion and
  /// resilience totals on storm_congestion: identical for every iteration
  /// of a seed, traced or not, and compared with stored references.
  std::vector<Fact> facts;
  /// In-run checks that failed (empty = all passed).
  std::vector<std::string> failures;
  /// Per-layer metrics, traced iterations only.
  std::vector<std::pair<std::string, double>> layers;
};

/// Throws std::invalid_argument for an unknown workload.
[[nodiscard]] IterationResult run_iteration(const IterationOptions& options);

/// One-line JSON object (what the wtr_perfbench binary prints).
[[nodiscard]] std::string to_json(const IterationResult& result);

}  // namespace perfbench
