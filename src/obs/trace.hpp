#pragma once

// Flight-recorder tracing (DESIGN.md "Flight recorder"): always-compiled,
// opt-in timeline capture of where the engine spends its wall time. One
// FlightRecorder owns a fixed-capacity ring buffer of spans and instant
// events per *track* — track 0 is the engine/merge thread, tracks 1..K are
// the K shard loops — and each track has exactly one writer thread, so
// recording is lock-free by construction: a shard thread appends to its own
// ring with a plain store and a per-track sequence number, and the reader
// (export) only runs when the workers are quiesced at an engine barrier or
// after the run. When a ring wraps, the oldest events are overwritten and
// counted as dropped — a flight recorder keeps the most recent history, not
// the first.
//
// Determinism contract: the recorder observes, never perturbs. It owns no
// RNG, and no instrumented call site touches one; a disabled recorder (null
// pointer) costs one predictable branch per site, so simulation output is
// byte-identical with tracing on or off, at any thread count (enforced by
// tests/test_trace.cpp).
//
// Export is Chrome trace-event JSON ("X" complete spans, "i" instants, "M"
// thread-name metadata) loadable directly in Perfetto or chrome://tracing.
// Timestamps are steady-clock microseconds since recorder construction —
// never the wall clock, same rule as ScopedTimer.

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace wtr::obs {

/// Event category, exported as the Chrome trace "cat" field (Perfetto's
/// track filter box keys on it).
enum class TraceCat : std::uint8_t {
  kEngine,      // event-loop windows, wake batches
  kShard,       // per-shard loop windows
  kMerge,       // deterministic k-way merge + barrier fan-out
  kCheckpoint,  // snapshot serialize / write / fsync
  kCongestion,  // ledger absorb + bucket roll at barriers
  kSink,        // record-sink flushes
};

[[nodiscard]] const char* trace_cat_name(TraceCat cat) noexcept;

/// One recorded event. Name/arg-name pointers must have static storage
/// duration (string literals at the call sites) — the ring stores pointers,
/// not copies, which is what keeps a push allocation-free.
struct TraceEvent {
  /// dur_ns value marking an instant event (exported as ph:"i").
  static constexpr std::int64_t kInstant = -1;

  const char* name = nullptr;
  std::int64_t start_ns = 0;        // steady-clock ns since recorder epoch
  std::int64_t dur_ns = kInstant;   // span length, or kInstant
  std::uint64_t seq = 0;            // per-track, assigned by the ring
  std::int64_t arg1 = 0;
  std::int64_t arg2 = 0;
  const char* arg1_name = nullptr;  // null = no arg
  const char* arg2_name = nullptr;
  TraceCat cat = TraceCat::kEngine;
};

/// Single-writer ring buffer of TraceEvents. The owning thread pushes; any
/// thread may read once the writer is quiesced (the engine's barriers and
/// run-end provide the happens-before edge via the thread pool).
class TraceTrack {
 public:
  explicit TraceTrack(std::size_t capacity);

  /// Append, overwriting the oldest event once full. Assigns the event's
  /// per-track sequence number.
  void push(TraceEvent event) noexcept;

  [[nodiscard]] std::size_t capacity() const noexcept { return ring_.size(); }
  /// Events ever pushed (monotonic, survives wrap).
  [[nodiscard]] std::uint64_t recorded() const noexcept { return next_seq_; }
  /// Events lost to wrap (recorded - retained).
  [[nodiscard]] std::uint64_t dropped() const noexcept {
    return next_seq_ > ring_.size() ? next_seq_ - ring_.size() : 0;
  }
  /// Retained events, oldest first (reader side; writer must be quiesced).
  [[nodiscard]] std::vector<TraceEvent> ordered() const;

 private:
  std::vector<TraceEvent> ring_;
  std::uint64_t next_seq_ = 0;
};

class FlightRecorder {
 public:
  /// Track 0: the engine/merge thread (also the only track for threads=1).
  static constexpr std::uint32_t kEngineTrack = 0;
  /// Track of shard index `s` (shard loops run on worker threads).
  [[nodiscard]] static constexpr std::uint32_t shard_track(std::size_t s) noexcept {
    return static_cast<std::uint32_t>(s) + 1;
  }

  /// `shard_tracks` shard tracks plus the engine track are allocated, each
  /// with `capacity_per_track` event slots.
  FlightRecorder(std::size_t shard_tracks, std::size_t capacity_per_track);

  [[nodiscard]] const TraceTrack& track(std::uint32_t t) const { return tracks_[t]; }

  /// Nanoseconds since recorder construction (steady clock).
  [[nodiscard]] std::int64_t now_ns() const noexcept {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now() - epoch_)
        .count();
  }

  /// Record an instant event on `track` (must be the track's owner thread).
  void instant(std::uint32_t track, TraceCat cat, const char* name,
               const char* arg1_name = nullptr, std::int64_t arg1 = 0,
               const char* arg2_name = nullptr, std::int64_t arg2 = 0) noexcept;

  /// Record a completed span (TraceSpan is the usual front door).
  void complete(std::uint32_t track, TraceCat cat, const char* name,
                std::int64_t start_ns, std::int64_t dur_ns,
                const char* arg1_name = nullptr, std::int64_t arg1 = 0,
                const char* arg2_name = nullptr, std::int64_t arg2 = 0) noexcept;

  [[nodiscard]] std::uint64_t events_recorded() const noexcept;
  [[nodiscard]] std::uint64_t events_dropped() const noexcept;

  /// The full Chrome trace-event JSON document (empty tracks beyond the
  /// engine track are omitted — a clamped shard count leaves no ghosts).
  [[nodiscard]] std::string to_chrome_json() const;

  /// Write the export to `path`. Returns false (with a stderr warning) on
  /// I/O failure — tracing must never turn a finished run into an error.
  bool write(const std::string& path) const;

 private:
  std::chrono::steady_clock::time_point epoch_;
  std::vector<TraceTrack> tracks_;
};

/// RAII span: opens at construction, records on destruction (or close()).
/// A null recorder disables the span entirely — no clock reads.
class TraceSpan {
 public:
  TraceSpan(FlightRecorder* recorder, std::uint32_t track, TraceCat cat,
            const char* name) noexcept
      : recorder_(recorder), track_(track), cat_(cat), name_(name) {
    if (recorder_ != nullptr) start_ns_ = recorder_->now_ns();
  }
  ~TraceSpan() { close(); }

  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

  /// Attach up to two integer args (names must be string literals).
  void set_args(const char* arg1_name, std::int64_t arg1,
                const char* arg2_name = nullptr, std::int64_t arg2 = 0) noexcept {
    arg1_name_ = arg1_name;
    arg1_ = arg1;
    arg2_name_ = arg2_name;
    arg2_ = arg2;
  }

  /// Record the span now; later close() calls (and the destructor) no-op.
  void close() noexcept {
    if (recorder_ == nullptr) return;
    recorder_->complete(track_, cat_, name_, start_ns_,
                        recorder_->now_ns() - start_ns_, arg1_name_, arg1_,
                        arg2_name_, arg2_);
    recorder_ = nullptr;
  }

 private:
  FlightRecorder* recorder_;
  std::uint32_t track_;
  TraceCat cat_;
  const char* name_;
  std::int64_t start_ns_ = 0;
  const char* arg1_name_ = nullptr;
  const char* arg2_name_ = nullptr;
  std::int64_t arg1_ = 0;
  std::int64_t arg2_ = 0;
};

}  // namespace wtr::obs
