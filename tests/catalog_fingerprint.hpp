#pragma once

// The devices-catalog fingerprint the catalog goldens pin across commits:
// the row count plus an FNV-1a-64 over every DailyDeviceRecord field and
// every summarize() field, doubles by bit pattern and APNs as text.

#include <bit>
#include <cstdint>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

#include "core/catalog_builder.hpp"

namespace wtr {

struct CatalogFingerprint {
  std::uint64_t rows = 0;
  std::uint64_t fnv1a64 = 0;

  friend bool operator==(const CatalogFingerprint&, const CatalogFingerprint&) = default;
};

inline void PrintTo(const CatalogFingerprint& f, std::ostream* os) {
  *os << "{" << f.rows << "u, 0x" << std::hex << f.fnv1a64 << std::dec << "ull}";
}

class Fnv1a64 {
 public:
  void u64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) byte(static_cast<unsigned char>(v >> (8 * i)));
  }
  void f64(double v) { u64(std::bit_cast<std::uint64_t>(v)); }
  void text(std::string_view s) {
    u64(s.size());
    for (const unsigned char c : s) byte(c);
  }
  void plmns(const std::vector<cellnet::Plmn>& list) {
    u64(list.size());
    for (const auto plmn : list) u64(plmn.key());
  }
  void apns(const std::vector<std::string>& list) {
    u64(list.size());
    for (const auto& apn : list) text(apn);
  }
  [[nodiscard]] std::uint64_t value() const noexcept { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ull;

  void byte(unsigned char c) {
    h_ ^= c;
    h_ *= 0x100000001b3ull;
  }
};

inline CatalogFingerprint catalog_fingerprint(core::CatalogAccumulator& accumulator) {
  const records::DevicesCatalog catalog = accumulator.finalize();
  Fnv1a64 h;
  for (const auto& r : catalog.records()) {
    h.u64(r.device);
    h.u64(static_cast<std::uint32_t>(r.day));
    h.u64(r.sim_plmn.key());
    h.plmns(r.visited_plmns);
    h.u64(r.signaling_events);
    h.u64(r.failed_events);
    h.u64(r.calls);
    h.f64(r.call_seconds);
    h.u64(r.bytes);
    h.apns(r.apns);
    h.u64(r.tac);
    h.u64(r.radio_flags.bits());
    h.u64(r.data_rats.bits());
    h.u64(r.voice_rats.bits());
    h.f64(r.centroid.lat);
    h.f64(r.centroid.lon);
    h.f64(r.gyration_m);
    h.u64(r.has_position);
  }
  const auto summaries = core::summarize(catalog);
  h.u64(summaries.size());
  for (const auto& s : summaries) {
    h.u64(s.device);
    h.u64(s.sim_plmn.key());
    h.plmns(s.visited_plmns);
    h.apns(s.apns);
    h.u64(s.tac);
    h.u64(s.active_days);
    h.u64(static_cast<std::uint32_t>(s.first_day));
    h.u64(static_cast<std::uint32_t>(s.last_day));
    h.u64(s.signaling_events);
    h.u64(s.failed_events);
    h.u64(s.calls);
    h.f64(s.call_seconds);
    h.u64(s.bytes);
    h.u64(s.radio_flags.bits());
    h.u64(s.data_rats.bits());
    h.u64(s.voice_rats.bits());
    h.f64(s.mean_daily_gyration_m);
    h.u64(s.has_position);
  }
  return {catalog.size(), h.value()};
}

/// CatalogGolden.Mno's value: MNO, 1,200 devices x 7 days, seed 42, sector
/// coverage on.
inline constexpr CatalogFingerprint kMnoCatalogGolden{6354u, 0x64fcce3f17b6899aull};

}  // namespace wtr
