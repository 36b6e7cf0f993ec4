#pragma once

// Record-stream wrappers the benchmark puts between the engine and the
// program's sinks. They observe from outside: a wrapper forwards every call
// unchanged to the sink it wraps, so the sink sees exactly the stream it
// would see unwrapped.

#include <chrono>
#include <cstdint>

#include "sim/device_agent.hpp"

namespace perfbench {

struct RecordCounts {
  std::uint64_t signaling = 0;
  std::uint64_t cdr = 0;
  std::uint64_t xdr = 0;
  std::uint64_t dwell = 0;

  [[nodiscard]] std::uint64_t total() const noexcept {
    return signaling + cdr + xdr + dwell;
  }
  friend bool operator==(const RecordCounts&, const RecordCounts&) = default;
};

/// Counts records per family and discards them (decode-only replay target,
/// and the independent counter of the wrapper self-test).
class CountingSink final : public wtr::sim::RecordSink {
 public:
  void on_signaling(const wtr::signaling::SignalingTransaction&, bool) override {
    ++counts_.signaling;
  }
  void on_cdr(const wtr::records::Cdr&) override { ++counts_.cdr; }
  void on_xdr(const wtr::records::Xdr&) override { ++counts_.xdr; }
  void on_dwell(wtr::signaling::DeviceHash, std::int32_t, wtr::cellnet::Plmn,
                const wtr::cellnet::GeoPoint&, double) override {
    ++counts_.dwell;
  }

  [[nodiscard]] const RecordCounts& counts() const noexcept { return counts_; }

 private:
  RecordCounts counts_;
};

/// Forwards to `inner`, counting records per family. With `timed` set it
/// also reads the steady clock around each forwarded call, so self_s() is
/// the wall time spent inside the wrapped sink (the traced run's per-sink
/// attribution). Untimed, it costs one increment per record, which is how
/// untraced runs count what the engine emits.
class ForwardingSink final : public wtr::sim::RecordSink {
 public:
  ForwardingSink(wtr::sim::RecordSink& inner, bool timed) : inner_(inner), timed_(timed) {}

  void on_signaling(const wtr::signaling::SignalingTransaction& txn,
                    bool data_context) override {
    ++counts_.signaling;
    if (!timed_) return inner_.on_signaling(txn, data_context);
    const auto start = Clock::now();
    inner_.on_signaling(txn, data_context);
    self_ += Clock::now() - start;
  }
  void on_cdr(const wtr::records::Cdr& cdr) override {
    ++counts_.cdr;
    if (!timed_) return inner_.on_cdr(cdr);
    const auto start = Clock::now();
    inner_.on_cdr(cdr);
    self_ += Clock::now() - start;
  }
  void on_xdr(const wtr::records::Xdr& xdr) override {
    ++counts_.xdr;
    if (!timed_) return inner_.on_xdr(xdr);
    const auto start = Clock::now();
    inner_.on_xdr(xdr);
    self_ += Clock::now() - start;
  }
  void on_dwell(wtr::signaling::DeviceHash device, std::int32_t day,
                wtr::cellnet::Plmn visited_plmn, const wtr::cellnet::GeoPoint& location,
                double seconds) override {
    ++counts_.dwell;
    if (!timed_) return inner_.on_dwell(device, day, visited_plmn, location, seconds);
    const auto start = Clock::now();
    inner_.on_dwell(device, day, visited_plmn, location, seconds);
    self_ += Clock::now() - start;
  }

  [[nodiscard]] const RecordCounts& counts() const noexcept { return counts_; }
  [[nodiscard]] double self_s() const noexcept {
    return std::chrono::duration<double>(self_).count();
  }

 private:
  using Clock = std::chrono::steady_clock;

  wtr::sim::RecordSink& inner_;
  bool timed_;
  RecordCounts counts_;
  Clock::duration self_{};
};

}  // namespace perfbench
