#pragma once

// The traced run's span log. Spans are kept in memory and written once at
// exit as a Chrome trace-event document — the format the engine's flight
// recorder already exports — with the recorder's own events spliced in, so
// one viewer (Perfetto, chrome://tracing) shows the benchmark's phase spans
// (pid 2) above the engine's shard and merge spans (pid 1) on one timebase.

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

class SpanLog {
 public:
  SpanLog() : epoch_(std::chrono::steady_clock::now()) {}

  /// Nanoseconds since the log was created (steady clock).
  [[nodiscard]] std::int64_t now_ns() const noexcept {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now() - epoch_)
        .count();
  }

  /// Record a completed span on the lane named `track`. `args` are
  /// name/value pairs rendered into the event's args object.
  void add(std::string name, std::string track, std::int64_t start_ns,
           std::int64_t dur_ns, std::vector<std::pair<std::string, double>> args = {});

  /// The Chrome trace-event document. `engine_json` is an engine
  /// FlightRecorder::to_chrome_json() export (empty for none); its
  /// timestamps count from the recorder's construction, which happened at
  /// `engine_epoch_ns` on this log's clock, and are shifted by that much.
  [[nodiscard]] std::string to_chrome_json(const std::string& engine_json,
                                           std::int64_t engine_epoch_ns) const;

 private:
  struct Span {
    std::string name;
    std::string track;
    std::int64_t start_ns = 0;
    std::int64_t dur_ns = 0;
    std::vector<std::pair<std::string, double>> args;
  };

  std::chrono::steady_clock::time_point epoch_;
  std::vector<Span> spans_;
};

/// Shift every `"ts":<number>` in a Chrome trace-event fragment by
/// `offset_us` microseconds.
[[nodiscard]] std::string shift_timestamps(const std::string& events, double offset_us);

}  // namespace perfbench
