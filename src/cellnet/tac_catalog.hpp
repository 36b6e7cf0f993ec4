#pragma once

// GSMA-style device catalog: TAC → vendor / model / OS / coarse label /
// supported radio bands. The paper joins its radio logs against the
// commercial GSMA database; we synthesize a catalog with the same marginals
// it reports: ~2.4k vendors and ~25k models across the population, major
// smartphone OSes, and M2M module vendors (Gemalto, Telit, Sierra Wireless)
// covering 75% of inbound roamers.

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "cellnet/imei.hpp"
#include "cellnet/rat.hpp"
#include "stats/rng.hpp"

namespace wtr::cellnet {

/// The coarse device label the GSMA catalog carries. The paper notes that
/// non-phones are "mostly marked as modem or module, which might not
/// necessarily imply an M2M/IoT application" — hence its multi-step
/// classifier instead of trusting this field.
enum class GsmaLabel : std::uint8_t {
  kSmartphone,
  kFeaturePhone,
  kModem,
  kModule,
  kTablet,
  kWearable,
  kUnknown,
};

[[nodiscard]] std::string_view gsma_label_name(GsmaLabel label) noexcept;

enum class DeviceOs : std::uint8_t {
  kAndroid,
  kIos,
  kBlackberry,
  kWindowsMobile,
  kProprietary,  // RTOS / vendor firmware (modules, feature phones)
  kNone,
};

/// True for the "major smartphone OS" set the paper's classifier keys on.
[[nodiscard]] bool is_major_smartphone_os(DeviceOs os) noexcept;

struct TacInfo {
  Tac tac = 0;
  std::string vendor;
  std::string model;
  DeviceOs os = DeviceOs::kNone;
  GsmaLabel label = GsmaLabel::kUnknown;
  RatMask bands{};  // radio technologies the hardware supports
};

class TacCatalog {
 public:
  /// Registers an entry; overwrites silently on duplicate TAC (last wins),
  /// mirroring catalog refresh semantics.
  void add(TacInfo info);

  [[nodiscard]] const TacInfo* lookup(Tac tac) const noexcept;
  [[nodiscard]] std::size_t size() const noexcept { return entries_.size(); }

  [[nodiscard]] std::size_t distinct_vendors() const;
  [[nodiscard]] std::size_t distinct_models() const;

 private:
  std::unordered_map<Tac, TacInfo> entries_;
};

/// What kind of equipment a simulated device embeds; determines which TAC
/// pool it draws from.
enum class EquipmentCategory : std::uint8_t {
  kSmartphone,
  kFeaturePhone,
  kM2MModule,
};

/// Synthetic catalog plus per-category weighted TAC pools for sampling.
class TacPools {
 public:
  struct Config {
    std::uint64_t seed = 1;
    // Model counts per category; vendor lists are built in. Long-tail
    // vendors are added to reach `filler_vendors` total distinct vendors.
    std::size_t smartphone_models = 900;
    std::size_t feature_models = 250;
    std::size_t module_models = 350;
    std::size_t filler_vendors = 800;   // additional tail vendors
    std::size_t filler_models = 1'600;  // models spread over tail vendors
    double model_zipf_exponent = 1.05;  // popularity skew across models
  };

  TacPools() = default;
  explicit TacPools(const Config& config);

  [[nodiscard]] const TacCatalog& catalog() const noexcept { return catalog_; }

  /// Draw a TAC for a device of this category (Zipf-skewed popularity).
  [[nodiscard]] Tac draw(stats::Rng& rng, EquipmentCategory category) const;

  /// Draw a TAC restricted to a specific vendor within a category; used for
  /// the SMIP-roaming fleet, which the paper finds is built exclusively on
  /// Gemalto and Telit modules. Falls back to draw() if the vendor has no
  /// models in this category.
  [[nodiscard]] Tac draw_vendor(stats::Rng& rng, EquipmentCategory category,
                                std::string_view vendor) const;

  /// Draw a long-tail OEM TAC (unknown GSMA label, no smartphone OS). Used
  /// for fleets that should end up in the classifier's m2m-maybe residue —
  /// their equipment never co-occurs with a validated APN, so property
  /// propagation cannot claim them.
  [[nodiscard]] Tac draw_filler(stats::Rng& rng) const;

 private:
  struct Pool {
    std::vector<Tac> tacs;
    stats::DiscreteSampler sampler;
  };

  [[nodiscard]] const Pool& pool_of(EquipmentCategory category) const noexcept;

  TacCatalog catalog_;
  Pool smartphone_pool_;
  Pool feature_pool_;
  Pool module_pool_;
  std::vector<Tac> filler_tacs_;
  std::unordered_map<std::string, std::vector<Tac>> vendor_modules_;
};

/// The three vendors the paper singles out as covering 75% of inbound
/// roaming devices.
[[nodiscard]] std::vector<std::string_view> top_m2m_module_vendors();

}  // namespace wtr::cellnet
