#pragma once

// The daily devices-catalog (§4.1): one record per (device, day) combining
// the three raw sources — radio events, CDRs/xDRs and the TAC catalog —
// with summarized radio flags and mobility metrics. This is the input to
// every §4–7 analysis; core/catalog_builder constructs it from raw streams.

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "cellnet/geo.hpp"
#include "cellnet/imei.hpp"
#include "cellnet/plmn.hpp"
#include "cellnet/rat.hpp"
#include "signaling/transaction.hpp"

namespace wtr::records {

struct DailyDeviceRecord {
  signaling::DeviceHash device = 0;
  std::int32_t day = 0;
  cellnet::Plmn sim_plmn{};
  std::vector<cellnet::Plmn> visited_plmns;  // sorted, unique

  std::uint64_t signaling_events = 0;  // all control-plane events this day
  std::uint64_t failed_events = 0;     // subset with non-OK results
  std::uint32_t calls = 0;
  double call_seconds = 0.0;
  std::uint64_t bytes = 0;
  std::vector<std::string> apns;  // sorted, unique full APN strings

  cellnet::Tac tac = 0;           // 0 when no equipment identity was seen
  cellnet::RatMask radio_flags{}; // successful radio activity per RAT
  cellnet::RatMask data_rats{};   // RATs carrying data for this device
  cellnet::RatMask voice_rats{};  // RATs carrying voice

  // Mobility metrics (time-weighted over serving sectors; §4.1).
  cellnet::GeoPoint centroid{};
  double gyration_m = 0.0;
  bool has_position = false;

  [[nodiscard]] bool roamed_internationally() const noexcept {
    for (const auto& visited : visited_plmns) {
      if (visited.mcc() != sim_plmn.mcc()) return true;
    }
    return false;
  }
};

class DevicesCatalog {
 public:
  void add(DailyDeviceRecord record);
  void reserve(std::size_t n) { records_.reserve(n); }

  [[nodiscard]] const std::vector<DailyDeviceRecord>& records() const noexcept {
    return records_;
  }
  [[nodiscard]] std::size_t size() const noexcept { return records_.size(); }

  /// Number of distinct devices across all days.
  [[nodiscard]] std::size_t distinct_devices() const;

  /// Day range covered: [min_day, max_day]; {0, -1} when empty.
  [[nodiscard]] std::pair<std::int32_t, std::int32_t> day_span() const;

 private:
  std::vector<DailyDeviceRecord> records_;
};

}  // namespace wtr::records
