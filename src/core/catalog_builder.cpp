#include "core/catalog_builder.hpp"

#include <algorithm>
#include <numeric>

#include "stats/rng.hpp"

namespace wtr::core {

namespace {

std::uint64_t partial_key(signaling::DeviceHash device, std::int32_t day) {
  return stats::mix64(device, static_cast<std::uint64_t>(static_cast<std::uint32_t>(day)));
}

}  // namespace

CatalogAccumulator::CatalogAccumulator(Config config) : config_(std::move(config)) {
  if (config_.family_plmns.empty()) config_.family_plmns.push_back(config_.observer_plmn);
}

bool CatalogAccumulator::in_family(cellnet::Plmn plmn) const noexcept {
  return std::find(config_.family_plmns.begin(), config_.family_plmns.end(), plmn) !=
         config_.family_plmns.end();
}

CatalogAccumulator::Partial& CatalogAccumulator::row_for(signaling::DeviceHash device,
                                                         std::int32_t day) {
  // A wake emits its records back to back, so most records land on the row
  // of the record before them.
  if (last_row_ != kNone) {
    Partial& last = row(last_row_);
    if (last.device == device && last.day == day) return last;
  }
  if (4 * (std::size_t{rows_} + 1) > 3 * index_.size()) grow_index();
  const std::size_t mask = index_.size() - 1;
  std::size_t slot = partial_key(device, day) & mask;
  for (;; slot = (slot + 1) & mask) {
    const std::uint32_t r = index_[slot];
    if (r == kNone) break;
    Partial& partial = row(r);
    if (partial.device == device && partial.day == day) {
      last_row_ = r;
      return partial;
    }
  }
  if (rows_ % kChunkRows == 0) chunks_.push_back(std::make_unique<Partial[]>(kChunkRows));
  last_row_ = rows_++;
  index_[slot] = last_row_;
  Partial& partial = row(last_row_);
  partial.device = device;
  partial.day = day;
  return partial;
}

void CatalogAccumulator::grow_index() {
  std::vector<std::uint32_t> index(std::max<std::size_t>(16, 2 * index_.size()), kNone);
  const std::size_t mask = index.size() - 1;
  for (std::uint32_t r = 0; r < rows_; ++r) {
    std::size_t slot = partial_key(row(r).device, row(r).day) & mask;
    while (index[slot] != kNone) slot = (slot + 1) & mask;
    index[slot] = r;
  }
  index_.swap(index);
}

CatalogAccumulator::Partial& CatalogAccumulator::partial_for(
    signaling::DeviceHash device, std::int32_t day, cellnet::Plmn sim_plmn) {
  Partial& partial = row_for(device, day);
  // A dwell record may have opened this partial before any SIM-bearing
  // record arrived; fill the identity from the first record that knows it.
  if (!partial.sim_plmn.valid()) partial.sim_plmn = sim_plmn;
  return partial;
}

CatalogAccumulator::Overflow& CatalogAccumulator::overflow_of(Partial& partial) {
  if (partial.overflow == kNone) {
    partial.overflow = static_cast<std::uint32_t>(overflow_.size());
    overflow_.emplace_back();
  }
  return overflow_[partial.overflow];
}

void CatalogAccumulator::add_visited(Partial& partial, cellnet::Plmn plmn) {
  const auto inline_end = partial.visited + partial.visited_count;
  if (std::find(partial.visited, inline_end, plmn) != inline_end) return;
  if (partial.visited_count < kInlinePlmns) {
    partial.visited[partial.visited_count++] = plmn;
    return;
  }
  auto& visited = overflow_of(partial).visited;
  if (std::find(visited.begin(), visited.end(), plmn) == visited.end()) visited.push_back(plmn);
}

void CatalogAccumulator::add_apn(Partial& partial, const std::string& text) {
  if (text.empty()) return;
  const auto same_text = [&](std::uint32_t id) { return *apn_texts_[id] == text; };
  if (std::any_of(partial.apns, partial.apns + partial.apn_count, same_text)) return;
  if (partial.overflow != kNone) {
    const auto& more = overflow_[partial.overflow].apns;
    if (std::any_of(more.begin(), more.end(), same_text)) return;
  }
  const auto [it, inserted] =
      apn_ids_.try_emplace(text, static_cast<std::uint32_t>(apn_texts_.size()));
  if (inserted) apn_texts_.push_back(&it->first);
  if (partial.apn_count < kInlineApns) {
    partial.apns[partial.apn_count++] = it->second;
  } else {
    overflow_of(partial).apns.push_back(it->second);
  }
}

void CatalogAccumulator::on_signaling(const signaling::SignalingTransaction& txn,
                                      bool data_context) {
  (void)data_context;
  // Radio-log visibility: the observer's probes sit on its own RAN.
  if (txn.visited_plmn != config_.observer_plmn) return;
  ++accepted_;
  auto& partial = partial_for(txn.device, stats::day_of(txn.time), txn.sim_plmn);
  ++partial.signaling_events;
  if (signaling::is_failure(txn.result)) {
    ++partial.failed_events;
  } else {
    partial.radio_flags.set(txn.rat);
  }
  add_visited(partial, txn.visited_plmn);
  if (txn.tac != 0) partial.tac = txn.tac;
}

void CatalogAccumulator::on_cdr(const records::Cdr& cdr) {
  const bool on_observer_network = cdr.visited_plmn == config_.observer_plmn;
  if (!on_observer_network && !in_family(cdr.sim_plmn)) return;
  ++accepted_;
  auto& partial = partial_for(cdr.device, stats::day_of(cdr.time), cdr.sim_plmn);
  ++partial.calls;
  partial.call_seconds += cdr.duration_s;
  partial.voice_rats.set(cdr.rat);
  add_visited(partial, cdr.visited_plmn);
}

void CatalogAccumulator::on_xdr(const records::Xdr& xdr) {
  const bool on_observer_network = xdr.visited_plmn == config_.observer_plmn;
  if (!on_observer_network && !in_family(xdr.sim_plmn)) return;
  ++accepted_;
  auto& partial = partial_for(xdr.device, stats::day_of(xdr.time), xdr.sim_plmn);
  partial.bytes += xdr.bytes_total();
  partial.data_rats.set(xdr.rat);
  add_visited(partial, xdr.visited_plmn);
  add_apn(partial, xdr.apn);
}

void CatalogAccumulator::on_dwell(signaling::DeviceHash device, std::int32_t day,
                                  cellnet::Plmn visited_plmn,
                                  const cellnet::GeoPoint& location, double seconds) {
  // Sector coordinates exist only for the observer's own sectors.
  if (visited_plmn != config_.observer_plmn) return;
  // Dwell alone does not create a record: only devices with some observed
  // activity that day get mobility metrics. To keep it simple (and to match
  // "time spent on each individual sector", which accrues continuously) we
  // accept dwell into the partial regardless; finalize() drops positionless
  // pure-dwell records.
  row_for(device, day).gyration.add(location, seconds);
}

records::DevicesCatalog CatalogAccumulator::finalize() {
  // Deterministic output order: sort one small key per row by (device, day).
  struct Key {
    signaling::DeviceHash device;
    std::int32_t day;
    std::uint32_t row;
  };
  std::vector<Key> keys;
  keys.reserve(rows_);
  for (std::uint32_t r = 0; r < rows_; ++r) {
    const Partial& partial = row(r);
    const bool has_activity =
        partial.signaling_events > 0 || partial.calls > 0 || partial.bytes > 0;
    if (has_activity) keys.push_back({partial.device, partial.day, r});  // else dwell-only
  }
  std::sort(keys.begin(), keys.end(), [](const Key& a, const Key& b) {
    if (a.device != b.device) return a.device < b.device;
    return a.day < b.day;
  });

  records::DevicesCatalog catalog;
  catalog.reserve(keys.size());
  for (const Key& key : keys) {
    const Partial& partial = row(key.row);
    const Overflow* overflow = partial.overflow == kNone ? nullptr : &overflow_[partial.overflow];
    records::DailyDeviceRecord record;
    record.device = partial.device;
    record.day = partial.day;
    record.sim_plmn = partial.sim_plmn;
    record.visited_plmns.assign(partial.visited, partial.visited + partial.visited_count);
    if (overflow != nullptr) {
      record.visited_plmns.insert(record.visited_plmns.end(), overflow->visited.begin(),
                                  overflow->visited.end());
    }
    std::sort(record.visited_plmns.begin(), record.visited_plmns.end());
    record.signaling_events = partial.signaling_events;
    record.failed_events = partial.failed_events;
    record.calls = partial.calls;
    record.call_seconds = partial.call_seconds;
    record.bytes = partial.bytes;
    const std::size_t apn_count =
        partial.apn_count + (overflow != nullptr ? overflow->apns.size() : 0);
    record.apns.reserve(apn_count);
    for (std::size_t i = 0; i < partial.apn_count; ++i) {
      record.apns.push_back(*apn_texts_[partial.apns[i]]);
    }
    if (overflow != nullptr) {
      for (const std::uint32_t id : overflow->apns) record.apns.push_back(*apn_texts_[id]);
    }
    std::sort(record.apns.begin(), record.apns.end());
    record.tac = partial.tac;
    record.radio_flags = partial.radio_flags;
    record.data_rats = partial.data_rats;
    record.voice_rats = partial.voice_rats;
    if (!partial.gyration.empty()) {
      record.centroid = partial.gyration.centroid();
      record.gyration_m = partial.gyration.gyration_m();
      record.has_position = true;
    }
    catalog.add(std::move(record));
  }

  chunks_.clear();
  chunks_.shrink_to_fit();
  rows_ = 0;
  index_ = {};
  last_row_ = kNone;
  overflow_ = {};
  apn_ids_ = {};
  apn_texts_ = {};
  return catalog;
}

bool DeviceSummary::attached_to(cellnet::Plmn plmn) const noexcept {
  return std::find(visited_plmns.begin(), visited_plmns.end(), plmn) !=
         visited_plmns.end();
}

std::vector<DeviceSummary> summarize(const records::DevicesCatalog& catalog) {
  const auto& rows = catalog.records();
  const auto by_device = [](const records::DailyDeviceRecord& a,
                            const records::DailyDeviceRecord& b) { return a.device < b.device; };
  // Rows grouped by device, each device's rows in catalog order (so its sums
  // add in the same order whatever built the catalog). finalize() output is
  // already sorted; any other catalog goes through a stable sort of row
  // numbers.
  std::vector<std::size_t> order;
  if (!std::is_sorted(rows.begin(), rows.end(), by_device)) {
    order.resize(rows.size());
    std::iota(order.begin(), order.end(), std::size_t{0});
    std::stable_sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
      return by_device(rows[a], rows[b]);
    });
  }
  const auto row = [&](std::size_t i) -> const records::DailyDeviceRecord& {
    return order.empty() ? rows[i] : rows[order[i]];
  };

  std::size_t devices = 0;
  for (std::size_t i = 0; i < rows.size(); ++i) {
    devices += i == 0 || row(i).device != row(i - 1).device;
  }
  std::vector<DeviceSummary> out;
  out.reserve(devices);

  for (std::size_t begin = 0, end = 0; begin < rows.size(); begin = end) {
    const auto& first = row(begin);
    DeviceSummary& summary = out.emplace_back();
    summary.device = first.device;
    summary.sim_plmn = first.sim_plmn;
    summary.first_day = first.day;
    summary.last_day = first.day;
    double gyration_sum = 0.0;
    std::uint32_t positioned_days = 0;
    for (end = begin; end < rows.size() && row(end).device == first.device; ++end) {
      const auto& record = row(end);
      summary.first_day = std::min(summary.first_day, record.day);
      summary.last_day = std::max(summary.last_day, record.day);
      ++summary.active_days;
      summary.signaling_events += record.signaling_events;
      summary.failed_events += record.failed_events;
      summary.calls += record.calls;
      summary.call_seconds += record.call_seconds;
      summary.bytes += record.bytes;
      for (const auto& plmn : record.visited_plmns) {
        if (std::find(summary.visited_plmns.begin(), summary.visited_plmns.end(), plmn) ==
            summary.visited_plmns.end()) {
          summary.visited_plmns.push_back(plmn);
        }
      }
      for (const auto& apn : record.apns) {
        if (std::find(summary.apns.begin(), summary.apns.end(), apn) == summary.apns.end()) {
          summary.apns.push_back(apn);
        }
      }
      if (record.tac != 0) summary.tac = record.tac;
      summary.radio_flags = cellnet::RatMask{
          static_cast<std::uint8_t>(summary.radio_flags.bits() | record.radio_flags.bits())};
      summary.data_rats = cellnet::RatMask{
          static_cast<std::uint8_t>(summary.data_rats.bits() | record.data_rats.bits())};
      summary.voice_rats = cellnet::RatMask{
          static_cast<std::uint8_t>(summary.voice_rats.bits() | record.voice_rats.bits())};
      if (record.has_position) {
        gyration_sum += record.gyration_m;
        ++positioned_days;
        summary.has_position = true;
      }
    }
    if (positioned_days > 0) summary.mean_daily_gyration_m = gyration_sum / positioned_days;
    std::sort(summary.visited_plmns.begin(), summary.visited_plmns.end());
    std::sort(summary.apns.begin(), summary.apns.end());
  }
  return out;
}

}  // namespace wtr::core
