#pragma once

// Text dumps of what a run produces besides its records — metrics, probe
// trajectory, resilience report — for exact comparison between runs that
// must agree: threads=1 and threads=N, interrupted+resumed and
// uninterrupted, traced and untraced. Doubles print with %a, so equal text
// means equal bits. The record stream itself is compared through
// sim::StreamDigest.

#include <cstdio>
#include <string>

#include "faults/resilience_report.hpp"
#include "obs/engine_probe.hpp"
#include "obs/metrics.hpp"

namespace wtr {

inline std::string hex_double(double v) {
  char buf[48];
  std::snprintf(buf, sizeof buf, "%a", v);  // bit-exact round trip
  return buf;
}

/// The trace.* family is the flight recorder's wall-clock-derived telemetry,
/// published only on traced runs, so every dump leaves it out.
inline bool quarantined_metric(const std::string& name) {
  return name.rfind("trace.", 0) == 0;
}

inline std::string dump_metrics(const obs::MetricsRegistry& metrics) {
  std::string out;
  for (const auto& [name, counter] : metrics.counters()) {
    if (quarantined_metric(name)) continue;
    out += name + "=" + std::to_string(counter.value()) + "\n";
  }
  for (const auto& [name, gauge] : metrics.gauges()) {
    if (quarantined_metric(name)) continue;
    out += name + "=" + hex_double(gauge.value()) + "\n";
  }
  for (const auto& [name, hist] : metrics.histograms()) {
    if (quarantined_metric(name)) continue;
    out += name + ": n=" + std::to_string(hist.count()) +
           " sum=" + hex_double(hist.sum()) + " buckets=";
    for (const auto b : hist.bucket_counts()) out += std::to_string(b) + ",";
    out += "\n";
  }
  return out;
}

inline std::string dump_probe(const obs::EngineProbe& probe) {
  std::string out;
  for (const auto& s : probe.samples()) {
    out += std::to_string(s.sim_time) + "|" + std::to_string(s.wakes) + "|" +
           std::to_string(s.queue_depth) + "|" + std::to_string(s.records) + "|" +
           std::to_string(s.attach_attempts) + "|" +
           std::to_string(s.attach_failures) + "|" +
           std::to_string(s.active_fault_episodes) + "\n";
  }
  out += "max=" + std::to_string(probe.queue_depth_max());
  out += " records=" + std::to_string(probe.records_total());
  out += " failures=" + std::to_string(probe.attach_failures());
  out += "\n";
  return out;
}

inline std::string dump_resilience(const faults::ResilienceSummary& summary) {
  std::string out;
  out += "procedures=" + std::to_string(summary.procedures) + "\n";
  out += "failures=" + std::to_string(summary.failures) + "\n";
  for (std::size_t code = 0; code < summary.by_code.size(); ++code) {
    out += "code," + std::to_string(code) + "=" +
           std::to_string(summary.by_code[code]) + "\n";
  }
  for (const auto& [day, n] : summary.failures_by_day) {
    out += "day," + std::to_string(day) + "=" + std::to_string(n) + "\n";
  }
  for (const auto& [op, n] : summary.failures_by_operator) {
    out += "op," + std::to_string(op) + "=" + std::to_string(n) + "\n";
  }
  for (const auto& rec : summary.recoveries) {
    out += "recovery," + std::to_string(rec.episode_index) + "," +
           std::to_string(rec.op) + "," + std::to_string(rec.outage_end) + "," +
           (rec.first_success_after ? std::to_string(*rec.first_success_after)
                                    : std::string{"none"}) +
           "\n";
  }
  return out;
}

}  // namespace wtr
