#include "cellnet/tac_catalog.hpp"

#include <array>
#include <cassert>
#include <cmath>
#include <cstdio>
#include <set>

#include "stats/distributions.hpp"

namespace wtr::cellnet {

std::string_view gsma_label_name(GsmaLabel label) noexcept {
  switch (label) {
    case GsmaLabel::kSmartphone: return "smartphone";
    case GsmaLabel::kFeaturePhone: return "feature-phone";
    case GsmaLabel::kModem: return "modem";
    case GsmaLabel::kModule: return "module";
    case GsmaLabel::kTablet: return "tablet";
    case GsmaLabel::kWearable: return "wearable";
    case GsmaLabel::kUnknown: return "unknown";
  }
  return "?";
}

bool is_major_smartphone_os(DeviceOs os) noexcept {
  switch (os) {
    case DeviceOs::kAndroid:
    case DeviceOs::kIos:
    case DeviceOs::kBlackberry:
    case DeviceOs::kWindowsMobile: return true;
    default: return false;
  }
}

void TacCatalog::add(TacInfo info) { entries_[info.tac] = std::move(info); }

const TacInfo* TacCatalog::lookup(Tac tac) const noexcept {
  const auto it = entries_.find(tac);
  return it == entries_.end() ? nullptr : &it->second;
}

std::size_t TacCatalog::distinct_vendors() const {
  std::set<std::string_view> vendors;
  for (const auto& [_, info] : entries_) vendors.insert(info.vendor);
  return vendors.size();
}

std::size_t TacCatalog::distinct_models() const {
  std::set<std::pair<std::string_view, std::string_view>> models;
  for (const auto& [_, info] : entries_) models.insert({info.vendor, info.model});
  return models.size();
}

std::vector<std::string_view> top_m2m_module_vendors() {
  return {"Gemalto", "Telit", "Sierra Wireless"};
}

namespace {

struct VendorSpec {
  std::string_view name;
  double weight;  // share of this category's models
};

// Smartphone vendors with rough market-share weights.
constexpr std::array<VendorSpec, 12> kSmartphoneVendors{{
    {"Samsung", 0.26}, {"Apple", 0.20}, {"Huawei", 0.14}, {"Xiaomi", 0.09},
    {"Oppo", 0.06}, {"LG", 0.05}, {"Sony", 0.04}, {"Motorola", 0.04},
    {"OnePlus", 0.03}, {"Nokia", 0.03}, {"Google", 0.03}, {"HTC", 0.03},
}};

constexpr std::array<VendorSpec, 8> kFeatureVendors{{
    {"Nokia", 0.34}, {"Samsung", 0.18}, {"Alcatel", 0.14}, {"ZTE", 0.10},
    {"Doro", 0.08}, {"Philips", 0.06}, {"Siemens", 0.05}, {"Sagem", 0.05},
}};

// M2M module vendors. The top three (Gemalto, Telit, Sierra Wireless) get a
// combined ~0.75 weight to match the paper's inbound-roamer composition.
constexpr std::array<VendorSpec, 10> kModuleVendors{{
    {"Gemalto", 0.34}, {"Telit", 0.26}, {"Sierra Wireless", 0.15},
    {"u-blox", 0.06}, {"Quectel", 0.05}, {"SIMCom", 0.04}, {"Cinterion", 0.03},
    {"Fibocom", 0.03}, {"Neoway", 0.02}, {"MeiG", 0.02},
}};

constexpr Tac kSmartphoneTacBase = 35'000'000;
constexpr Tac kFeatureTacBase = 35'400'000;
constexpr Tac kModuleTacBase = 35'700'000;
constexpr Tac kFillerTacBase = 86'000'000;

std::string model_name(std::string_view vendor, std::size_t index) {
  char buf[96];
  std::snprintf(buf, sizeof(buf), "%.*s-%zu", static_cast<int>(vendor.size()),
                vendor.data(), index + 100);
  return buf;
}

}  // namespace

TacPools::TacPools(const Config& config) {
  stats::Rng rng{config.seed};

  auto build_pool = [&](std::span<const VendorSpec> vendors, std::size_t model_count,
                        Tac tac_base, EquipmentCategory category) {
    Pool pool;
    std::vector<double> weights;
    pool.tacs.reserve(model_count);
    weights.reserve(model_count);
    std::vector<double> vendor_weights;
    for (const auto& v : vendors) vendor_weights.push_back(v.weight);
    std::vector<std::size_t> vendor_model_counts(vendors.size(), 0);

    for (std::size_t m = 0; m < model_count; ++m) {
      const std::size_t vi = rng.weighted_index(vendor_weights);
      const VendorSpec& vendor = vendors[vi];
      const Tac tac = tac_base + static_cast<Tac>(m);

      TacInfo info;
      info.tac = tac;
      info.vendor = std::string(vendor.name);
      info.model = model_name(vendor.name, vendor_model_counts[vi]++);
      switch (category) {
        case EquipmentCategory::kSmartphone: {
          info.label = GsmaLabel::kSmartphone;
          info.os = vendor.name == "Apple" ? DeviceOs::kIos
                    : rng.bernoulli(0.04)  ? DeviceOs::kWindowsMobile
                                           : DeviceOs::kAndroid;
          info.bands.set(Rat::kThreeG);
          if (rng.bernoulli(0.80)) info.bands.set(Rat::kFourG);
          if (rng.bernoulli(0.90)) info.bands.set(Rat::kTwoG);
          break;
        }
        case EquipmentCategory::kFeaturePhone: {
          info.label = GsmaLabel::kFeaturePhone;
          info.os = DeviceOs::kProprietary;
          info.bands.set(Rat::kTwoG);
          if (rng.bernoulli(0.20)) info.bands.set(Rat::kThreeG);
          break;
        }
        case EquipmentCategory::kM2MModule: {
          info.label = rng.bernoulli(0.55) ? GsmaLabel::kModule : GsmaLabel::kModem;
          info.os = rng.bernoulli(0.7) ? DeviceOs::kProprietary : DeviceOs::kNone;
          info.bands.set(Rat::kTwoG);  // modules ship 2G fallback universally
          if (rng.bernoulli(0.45)) info.bands.set(Rat::kThreeG);
          if (rng.bernoulli(0.30)) info.bands.set(Rat::kFourG);
          break;
        }
      }
      catalog_.add(info);
      pool.tacs.push_back(tac);
      // Zipf-like popularity: model index drives weight.
      weights.push_back(1.0 / std::pow(static_cast<double>(m + 1),
                                       config.model_zipf_exponent));
      if (category == EquipmentCategory::kM2MModule) {
        vendor_modules_[std::string(vendor.name)].push_back(tac);
      }
    }
    pool.sampler = stats::DiscreteSampler{weights};
    return pool;
  };

  smartphone_pool_ = build_pool(kSmartphoneVendors, config.smartphone_models,
                                kSmartphoneTacBase, EquipmentCategory::kSmartphone);
  feature_pool_ = build_pool(kFeatureVendors, config.feature_models, kFeatureTacBase,
                             EquipmentCategory::kFeaturePhone);
  module_pool_ = build_pool(kModuleVendors, config.module_models, kModuleTacBase,
                            EquipmentCategory::kM2MModule);

  // Long-tail filler vendors: rarely-seen equipment that inflates the
  // vendor/model counts the way the real GSMA catalog does (2,436 vendors /
  // 24,991 models across the paper's population).
  for (std::size_t m = 0; m < config.filler_models; ++m) {
    const std::size_t vendor_index =
        config.filler_vendors == 0 ? 0 : m % config.filler_vendors;
    char vendor_buf[32];
    std::snprintf(vendor_buf, sizeof(vendor_buf), "OEM-%04zu", vendor_index);
    TacInfo info;
    info.tac = kFillerTacBase + static_cast<Tac>(m);
    info.vendor = vendor_buf;
    info.model = model_name(vendor_buf, m / std::max<std::size_t>(1, config.filler_vendors));
    info.label = GsmaLabel::kUnknown;
    info.os = DeviceOs::kProprietary;
    info.bands.set(Rat::kTwoG);
    catalog_.add(info);
    filler_tacs_.push_back(info.tac);
  }
}

Tac TacPools::draw_filler(stats::Rng& rng) const {
  if (filler_tacs_.empty()) return draw(rng, EquipmentCategory::kM2MModule);
  return filler_tacs_[rng.below(filler_tacs_.size())];
}

const TacPools::Pool& TacPools::pool_of(EquipmentCategory category) const noexcept {
  switch (category) {
    case EquipmentCategory::kSmartphone: return smartphone_pool_;
    case EquipmentCategory::kFeaturePhone: return feature_pool_;
    case EquipmentCategory::kM2MModule: return module_pool_;
  }
  return module_pool_;
}

Tac TacPools::draw(stats::Rng& rng, EquipmentCategory category) const {
  const Pool& pool = pool_of(category);
  assert(!pool.tacs.empty());
  return pool.tacs[pool.sampler.sample(rng)];
}

Tac TacPools::draw_vendor(stats::Rng& rng, EquipmentCategory category,
                          std::string_view vendor) const {
  const auto it = vendor_modules_.find(std::string(vendor));
  if (it == vendor_modules_.end() || it->second.empty()) return draw(rng, category);
  return it->second[rng.below(it->second.size())];
}

}  // namespace wtr::cellnet
