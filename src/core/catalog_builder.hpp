#pragma once

// Devices-catalog construction (§4.1): a streaming RecordSink that joins
// the three raw sources — radio events, CDRs/xDRs and the TAC identity —
// into one DailyDeviceRecord per (device, day), applying the observing
// MNO's visibility rules:
//   * radio events are seen only when the device used the observer's radio
//     network (outbound roamers' radio signaling stays abroad);
//   * CDRs/xDRs are seen for the observer's radio network AND for the
//     observer's own/MVNO SIMs abroad (roaming reconciliation records);
//   * sector dwell (mobility) exists only on the observer's own sectors.
//
// Also defines DeviceSummary, the per-device rollup every §5–7 analysis
// consumes.

#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <type_traits>
#include <vector>

#include "core/mobility_metrics.hpp"
#include "records/devices_catalog.hpp"
#include "sim/device_agent.hpp"

namespace wtr::core {

class CatalogAccumulator final : public sim::RecordSink {
 public:
  struct Config {
    cellnet::Plmn observer_plmn{};               // the MNO under study
    std::vector<cellnet::Plmn> family_plmns;     // observer + its MVNOs
  };

  explicit CatalogAccumulator(Config config);

  void on_signaling(const signaling::SignalingTransaction& txn,
                    bool data_context) override;
  void on_cdr(const records::Cdr& cdr) override;
  void on_xdr(const records::Xdr& xdr) override;
  void on_dwell(signaling::DeviceHash device, std::int32_t day,
                cellnet::Plmn visited_plmn, const cellnet::GeoPoint& location,
                double seconds) override;

  /// Number of raw records accepted (after visibility filtering).
  [[nodiscard]] std::uint64_t accepted_records() const noexcept { return accepted_; }

  /// Drain into a catalog. The accumulator is empty afterwards.
  [[nodiscard]] records::DevicesCatalog finalize();

 private:
  // Scenario rows see at most three visited PLMNs and one APN per
  // (device, day); a row that outgrows the inline arrays keeps the rest in
  // overflow_.
  static constexpr std::size_t kInlinePlmns = 3;
  static constexpr std::size_t kInlineApns = 1;
  static constexpr std::uint32_t kChunkRows = 4096;
  static constexpr std::uint32_t kNone = std::numeric_limits<std::uint32_t>::max();

  /// One (device, day) of the catalog while it accumulates. Plain data:
  /// opening one allocates nothing, and the table is released in one step.
  struct Partial {
    signaling::DeviceHash device = 0;
    std::uint64_t signaling_events = 0;
    std::uint64_t failed_events = 0;
    std::uint64_t bytes = 0;
    double call_seconds = 0.0;
    GyrationAccumulator gyration;
    cellnet::ApnId apns[kInlineApns] = {};
    std::int32_t day = 0;
    std::uint32_t calls = 0;
    cellnet::Tac tac = 0;
    std::uint32_t overflow = kNone;  // index into overflow_
    cellnet::Plmn sim_plmn{};
    cellnet::Plmn visited[kInlinePlmns] = {};
    std::uint8_t visited_count = 0;
    std::uint8_t apn_count = 0;
    cellnet::RatMask radio_flags{};
    cellnet::RatMask data_rats{};
    cellnet::RatMask voice_rats{};
  };
  static_assert(std::is_trivially_copyable_v<Partial>);

  struct Overflow {
    std::vector<cellnet::Plmn> visited;
    std::vector<cellnet::ApnId> apns;
  };

  [[nodiscard]] bool in_family(cellnet::Plmn plmn) const noexcept;
  Partial& row(std::uint32_t r) noexcept { return chunks_[r / kChunkRows][r % kChunkRows]; }
  Partial& row_for(signaling::DeviceHash device, std::int32_t day);
  Partial& partial_for(signaling::DeviceHash device, std::int32_t day,
                       cellnet::Plmn sim_plmn);
  void grow_index();
  void add_visited(Partial& partial, cellnet::Plmn plmn);
  void add_apn(Partial& partial, cellnet::ApnId apn);
  Overflow& overflow_of(Partial& partial);

  Config config_;
  // Rows in first-touch order, kChunkRows to a chunk: the store grows
  // without moving a row or leaving a freed copy of itself behind.
  std::vector<std::unique_ptr<Partial[]>> chunks_;
  std::uint32_t rows_ = 0;
  std::vector<std::uint32_t> index_;   // open addressing: row numbers, kNone = empty
  std::uint32_t last_row_ = kNone;     // row of the previous record
  std::vector<Overflow> overflow_;
  std::uint64_t accepted_ = 0;
};

/// Per-device rollup across the whole observation window.
struct DeviceSummary {
  signaling::DeviceHash device = 0;
  cellnet::Plmn sim_plmn{};
  std::vector<cellnet::Plmn> visited_plmns;  // unique
  std::vector<std::string> apns;             // unique full APN strings
  cellnet::Tac tac = 0;

  std::uint32_t active_days = 0;
  std::int32_t first_day = 0;
  std::int32_t last_day = 0;

  std::uint64_t signaling_events = 0;
  std::uint64_t failed_events = 0;
  std::uint32_t calls = 0;
  double call_seconds = 0.0;
  std::uint64_t bytes = 0;

  cellnet::RatMask radio_flags{};
  cellnet::RatMask data_rats{};
  cellnet::RatMask voice_rats{};

  double mean_daily_gyration_m = 0.0;
  bool has_position = false;

  [[nodiscard]] double signaling_per_day() const noexcept {
    return active_days == 0 ? 0.0
                            : static_cast<double>(signaling_events) / active_days;
  }
  [[nodiscard]] double calls_per_day() const noexcept {
    return active_days == 0 ? 0.0 : static_cast<double>(calls) / active_days;
  }
  [[nodiscard]] double bytes_per_day() const noexcept {
    return active_days == 0 ? 0.0 : static_cast<double>(bytes) / active_days;
  }
  [[nodiscard]] bool attached_to(cellnet::Plmn plmn) const noexcept;
};

/// Roll the catalog up to one summary per device, ordered by device hash
/// (deterministic).
[[nodiscard]] std::vector<DeviceSummary> summarize(const records::DevicesCatalog& catalog);

}  // namespace wtr::core
