#include "digest.hpp"

#include <bit>
#include <cstdio>

namespace perfbench {

void Fnv64::f64(double v) noexcept { u64(std::bit_cast<std::uint64_t>(v)); }

void Fnv64::str(std::string_view s) noexcept {
  u64(s.size());
  for (const char c : s) byte(static_cast<std::uint8_t>(c));
}

std::uint64_t census_digest(const wtr::core::ClassifiedPopulation& population) {
  Fnv64 h;
  h.u64(population.size());
  for (std::size_t i = 0; i < population.size(); ++i) {
    const auto& s = population.summaries[i];
    h.u64(s.device);
    h.u64(s.sim_plmn.key());
    h.u64(s.visited_plmns.size());
    for (const auto& plmn : s.visited_plmns) h.u64(plmn.key());
    h.u64(s.apns.size());
    for (const auto& apn : s.apns) h.str(apn);
    h.u64(s.tac);
    h.u64(s.active_days);
    h.u64(static_cast<std::uint64_t>(static_cast<std::int64_t>(s.first_day)));
    h.u64(static_cast<std::uint64_t>(static_cast<std::int64_t>(s.last_day)));
    h.u64(s.signaling_events);
    h.u64(s.failed_events);
    h.u64(s.calls);
    h.f64(s.call_seconds);
    h.u64(s.bytes);
    h.byte(s.radio_flags.bits());
    h.byte(s.data_rats.bits());
    h.byte(s.voice_rats.bits());
    h.f64(s.mean_daily_gyration_m);
    h.byte(s.has_position ? 1 : 0);
    h.byte(static_cast<std::uint8_t>(population.labels[i].sim));
    h.byte(static_cast<std::uint8_t>(population.labels[i].net));
    h.byte(static_cast<std::uint8_t>(population.classes[i]));
  }
  return h.value();
}

std::string hex64(std::uint64_t value) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(value));
  return buf;
}

}  // namespace perfbench
