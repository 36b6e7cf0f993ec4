#pragma once

// The SMIP smart-meter scenario (§7.1): a 26-day October window over the UK
// MNO's meter population only — SMIP-native meters on the dedicated IMSI
// range (long-lived, 2G+3G with 2/3 on 3G) versus SMIP-roaming meters on
// Dutch global IoT SIMs (2G-only Gemalto/Telit modules, ten-fold signaling,
// 35% failure incidence, short observed lifetimes).

#include <unordered_set>

#include "tracegen/scenario.hpp"

namespace wtr::tracegen {

struct SmipScenarioConfig : RunOptions {
  std::uint64_t seed = 1019;   // October 2019
  std::size_t total_devices = 16'000;
  std::int32_t days = 26;
  double native_share = 0.55;
  bool build_coverage = true;
};

class SmipScenario final : public ScenarioBase {
 public:
  explicit SmipScenario(const SmipScenarioConfig& config = {});

  [[nodiscard]] const SmipScenarioConfig& config() const noexcept { return config_; }
  [[nodiscard]] cellnet::Plmn observer_plmn() const;

  [[nodiscard]] const std::unordered_set<signaling::DeviceHash>& native_meters()
      const noexcept {
    return native_;
  }
  [[nodiscard]] const std::unordered_set<signaling::DeviceHash>& roaming_meters()
      const noexcept {
    return roaming_;
  }

 private:
  SmipScenarioConfig config_;
  std::unordered_set<signaling::DeviceHash> native_;
  std::unordered_set<signaling::DeviceHash> roaming_;
};

}  // namespace wtr::tracegen
