#include "records/devices_catalog.hpp"

#include <algorithm>
#include <limits>
#include <unordered_set>

namespace wtr::records {

void DevicesCatalog::add(DailyDeviceRecord record) {
  records_.push_back(std::move(record));
}

std::size_t DevicesCatalog::distinct_devices() const {
  std::unordered_set<signaling::DeviceHash> devices;
  devices.reserve(records_.size());
  for (const auto& record : records_) devices.insert(record.device);
  return devices.size();
}

std::pair<std::int32_t, std::int32_t> DevicesCatalog::day_span() const {
  if (records_.empty()) return {0, -1};
  std::int32_t lo = std::numeric_limits<std::int32_t>::max();
  std::int32_t hi = std::numeric_limits<std::int32_t>::min();
  for (const auto& record : records_) {
    lo = std::min(lo, record.day);
    hi = std::max(hi, record.day);
  }
  return {lo, hi};
}

}  // namespace wtr::records
