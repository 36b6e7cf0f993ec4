#include <gtest/gtest.h>

#include <set>
#include <stdexcept>
#include <string_view>

#include "devices/fleet_builder.hpp"
#include "devices/verticals.hpp"

namespace wtr::devices {
namespace {

class FleetBuilderTest : public ::testing::Test {
 protected:
  static const topology::World& world() {
    static const topology::World w = [] {
      topology::WorldConfig config;
      config.build_coverage = false;
      return topology::World::build(config);
    }();
    return w;
  }
  static const cellnet::TacPools& pools() {
    static const cellnet::TacPools p{cellnet::TacPools::Config{.seed = 3}};
    return p;
  }

  FleetSpec base_spec(std::size_t count) const {
    FleetSpec spec;
    spec.count = count;
    spec.home_operator = world().well_known().uk_mno;
    spec.profile = smartphone_profile();
    spec.deployment_iso = "GB";
    spec.horizon_days = 22;
    return spec;
  }
};

TEST_F(FleetBuilderTest, BuildsRequestedCount) {
  FleetBuilder builder{world(), pools(), 1};
  const auto fleet = builder.build(base_spec(100));
  EXPECT_EQ(fleet.size(), 100u);
  EXPECT_EQ(builder.devices_built(), 100u);
}

TEST_F(FleetBuilderTest, UnknownDeploymentCountryThrows) {
  FleetBuilder builder{world(), pools(), 12};
  auto spec = base_spec(10);
  spec.deployment_iso = "ZZ";
  try {
    (void)builder.build(spec);
    FAIL() << "an unknown deployment country must not build a fleet";
  } catch (const std::invalid_argument& error) {
    EXPECT_NE(std::string_view{error.what()}.find("ZZ"), std::string_view::npos)
        << error.what();
  }
  EXPECT_EQ(builder.devices_built(), 0u);
}

TEST_F(FleetBuilderTest, UniqueIdsAndImsisAcrossFleets) {
  FleetBuilder builder{world(), pools(), 2};
  const auto a = builder.build(base_spec(200));
  const auto b = builder.build(base_spec(200));
  std::set<signaling::DeviceHash> ids;
  std::set<std::string> imsis;
  for (const auto* fleet : {&a, &b}) {
    for (const auto& device : *fleet) {
      EXPECT_TRUE(ids.insert(device.id).second);
      EXPECT_TRUE(imsis.insert(device.imsi.to_string()).second);
    }
  }
}

TEST_F(FleetBuilderTest, DeterministicForSeed) {
  FleetBuilder a{world(), pools(), 7};
  FleetBuilder b{world(), pools(), 7};
  const auto fa = a.build(base_spec(50));
  const auto fb = b.build(base_spec(50));
  for (std::size_t i = 0; i < fa.size(); ++i) {
    EXPECT_EQ(fa[i].id, fb[i].id);
    EXPECT_EQ(fa[i].imei, fb[i].imei);
    EXPECT_DOUBLE_EQ(fa[i].sessions_per_day, fb[i].sessions_per_day);
  }
}

TEST_F(FleetBuilderTest, ImsiRangeHonored) {
  FleetBuilder builder{world(), pools(), 3};
  auto spec = base_spec(50);
  const auto plmn = world().operators().get(spec.home_operator).plmn;
  spec.imsi_range = cellnet::ImsiRange{plmn, 1'000, 2'000};
  const auto fleet = builder.build(spec);
  for (const auto& device : fleet) {
    EXPECT_TRUE(spec.imsi_range->contains(device.imsi));
  }
}

TEST_F(FleetBuilderTest, VendorRestrictionHonored) {
  FleetBuilder builder{world(), pools(), 4};
  auto spec = base_spec(80);
  spec.profile = m2m_profile(Vertical::kSmartMeter);
  spec.restrict_vendors = {"Gemalto", "Telit"};
  const auto fleet = builder.build(spec);
  for (const auto& device : fleet) {
    const auto* info = pools().catalog().lookup(device.imei.tac());
    ASSERT_NE(info, nullptr);
    EXPECT_TRUE(info->vendor == "Gemalto" || info->vendor == "Telit") << info->vendor;
  }
}

TEST_F(FleetBuilderTest, CapBandsRestrictsHardware) {
  FleetBuilder builder{world(), pools(), 5};
  auto spec = base_spec(60);
  spec.profile = m2m_profile(Vertical::kSmartMeter);
  spec.cap_bands = cellnet::RatMask{0b001};
  const auto fleet = builder.build(spec);
  for (const auto& device : fleet) {
    EXPECT_TRUE(device.capability.only(cellnet::Rat::kTwoG));
  }
}

TEST_F(FleetBuilderTest, ForceBandsAddsCapability) {
  FleetBuilder builder{world(), pools(), 6};
  auto spec = base_spec(60);
  spec.profile = m2m_profile(Vertical::kVendingMachine);
  spec.force_bands = cellnet::RatMask{0b100};
  const auto fleet = builder.build(spec);
  for (const auto& device : fleet) {
    EXPECT_TRUE(device.capability.has(cellnet::Rat::kFourG));
  }
}

TEST_F(FleetBuilderTest, LteSimDisabledRate) {
  FleetBuilder builder{world(), pools(), 7};
  auto spec = base_spec(2'000);
  spec.lte_sim_disabled_rate = 0.5;
  const auto fleet = builder.build(spec);
  std::size_t disabled = 0;
  for (const auto& device : fleet) {
    if (!device.sim_allowed_rats.has(cellnet::Rat::kFourG)) ++disabled;
  }
  EXPECT_NEAR(static_cast<double>(disabled) / fleet.size(), 0.5, 0.06);
}

TEST_F(FleetBuilderTest, NoDataDevicesHaveNoApn) {
  FleetBuilder builder{world(), pools(), 8};
  auto spec = base_spec(300);
  spec.profile.p_no_data = 1.0;
  spec.apn_policy = ApnPolicy::kConsumer;
  const auto fleet = builder.build(spec);
  for (const auto& device : fleet) {
    EXPECT_FALSE(device.uses_data());
    EXPECT_TRUE(device.apn.empty());
  }
}

TEST_F(FleetBuilderTest, VerticalApnsCarryCompanyDomains) {
  FleetBuilder builder{world(), pools(), 9};
  auto spec = base_spec(200);
  spec.profile = m2m_profile(Vertical::kSmartMeter);
  spec.profile.p_no_data = 0.0;
  spec.apn_policy = ApnPolicy::kVerticalCompany;
  const auto fleet = builder.build(spec);
  std::size_t with_energy_domain = 0;
  for (const auto& device : fleet) {
    ASSERT_FALSE(device.apn.empty());
    for (const auto& company : companies_of(Vertical::kSmartMeter)) {
      if (device.apn.network_id().find(company.domain) != std::string::npos) {
        ++with_energy_domain;
        break;
      }
    }
  }
  EXPECT_EQ(with_energy_domain, fleet.size());
}

TEST_F(FleetBuilderTest, PresenceWindowsWithinHorizon) {
  FleetBuilder builder{world(), pools(), 10};
  auto spec = base_spec(500);
  spec.profile.p_full_period = 0.3;
  const auto fleet = builder.build(spec);
  std::size_t full = 0;
  for (const auto& device : fleet) {
    EXPECT_GE(device.arrival_day, 0);
    EXPECT_LE(device.departure_day, spec.horizon_days);
    EXPECT_LT(device.arrival_day, device.departure_day);
    if (device.arrival_day == 0 && device.departure_day == spec.horizon_days) ++full;
  }
  EXPECT_NEAR(static_cast<double>(full) / fleet.size(), 0.3, 0.08);
}

TEST_F(FleetBuilderTest, FillerEquipmentUnknownLabel) {
  FleetBuilder builder{world(), pools(), 11};
  auto spec = base_spec(50);
  spec.use_filler_equipment = true;
  const auto fleet = builder.build(spec);
  for (const auto& device : fleet) {
    const auto* info = pools().catalog().lookup(device.imei.tac());
    ASSERT_NE(info, nullptr);
    EXPECT_EQ(info->label, cellnet::GsmaLabel::kUnknown);
  }
}

TEST(Profiles, ClassesAndEquipmentConsistent) {
  EXPECT_EQ(smartphone_profile().device_class, DeviceClass::kSmartphone);
  EXPECT_EQ(smartphone_profile().equipment, cellnet::EquipmentCategory::kSmartphone);
  EXPECT_EQ(feature_phone_profile().device_class, DeviceClass::kFeaturePhone);
  for (int v = 1; v < kVerticalCount; ++v) {
    const auto profile = m2m_profile(static_cast<Vertical>(v));
    EXPECT_EQ(profile.device_class, DeviceClass::kM2M);
    EXPECT_EQ(profile.vertical, static_cast<Vertical>(v));
  }
}

TEST(Profiles, M2MIsFlatDiurnalAndPhonesAreNot) {
  EXPECT_LT(smartphone_profile().diurnal_floor, 0.5);
  EXPECT_DOUBLE_EQ(m2m_profile(Vertical::kSmartMeter).diurnal_floor, 1.0);
}

TEST(Profiles, MobilityKindsMatchVerticals) {
  EXPECT_EQ(m2m_profile(Vertical::kSmartMeter).mobility, MobilityKind::kStationary);
  EXPECT_EQ(m2m_profile(Vertical::kConnectedCar).mobility, MobilityKind::kLongHaul);
  EXPECT_EQ(smartphone_profile().mobility, MobilityKind::kLocalCommuter);
}

TEST(Verticals, CompaniesKeywordsSubsetOfDomainsStructure) {
  for (int v = 1; v < kVerticalCount; ++v) {
    const auto companies = companies_of(static_cast<Vertical>(v));
    EXPECT_FALSE(companies.empty()) << vertical_name(static_cast<Vertical>(v));
    for (const auto& company : companies) {
      EXPECT_FALSE(company.domain.empty());
      EXPECT_GT(company.weight, 0.0);
    }
  }
  EXPECT_TRUE(companies_of(Vertical::kNone).empty());
}

TEST(Verticals, SmipEnergyCompaniesAllKeyworded) {
  const auto companies = smip_energy_companies();
  EXPECT_EQ(companies.size(), 5u);  // §4.4 names five energy companies
  for (const auto& company : companies) {
    EXPECT_FALSE(company.keyword.empty());
  }
}

TEST(Verticals, ApnGenerators) {
  stats::Rng rng{1};
  const cellnet::Plmn home{204, 4, 2};
  const auto& company = companies_of(Vertical::kSmartMeter).front();
  const auto apn = make_vertical_apn(company, home, rng);
  EXPECT_NE(apn.network_id().find(company.domain), std::string::npos);
  EXPECT_EQ(apn.operator_id(), home);

  const auto platform = make_platform_apn(home, rng);
  EXPECT_FALSE(platform.empty());

  const auto consumer = make_consumer_apn(home, rng);
  EXPECT_FALSE(consumer.empty());
}

}  // namespace
}  // namespace wtr::devices
