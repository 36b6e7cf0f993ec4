#include "cellnet/country.hpp"

#include <gtest/gtest.h>

#include <set>
#include <stdexcept>

namespace wtr::cellnet {
namespace {

TEST(Country, TableIsSortedByIso) {
  const auto countries = all_countries();
  for (std::size_t i = 1; i < countries.size(); ++i) {
    EXPECT_LT(countries[i - 1].iso, countries[i].iso);
  }
}

TEST(Country, UniqueMccs) {
  std::set<std::uint16_t> mccs;
  for (const auto& country : all_countries()) {
    EXPECT_TRUE(mccs.insert(country.mcc).second) << country.iso;
  }
}

TEST(Country, WellKnownAssignments) {
  EXPECT_EQ(country_by_iso("ES")->mcc, 214);
  EXPECT_EQ(country_by_iso("GB")->mcc, 234);
  EXPECT_EQ(country_by_iso("NL")->mcc, 204);
  EXPECT_EQ(country_by_iso("DE")->mcc, 262);
  EXPECT_EQ(country_by_iso("MX")->mcc, 334);
  EXPECT_EQ(country_by_iso("AR")->mcc, 722);
  EXPECT_EQ(country_by_iso("SE")->mcc, 240);
}

TEST(Country, LookupByMcc) {
  const auto es = country_by_mcc(214);
  ASSERT_TRUE(es.has_value());
  EXPECT_EQ(es->iso, "ES");
  EXPECT_FALSE(country_by_mcc(1).has_value());
}

TEST(Country, IsoOfMccFallsBack) {
  EXPECT_EQ(iso_of_mcc(234), "GB");
  EXPECT_EQ(iso_of_mcc(999), "??");
}

TEST(Country, UnknownIso) {
  EXPECT_FALSE(country_by_iso("XX").has_value());
  EXPECT_FALSE(country_by_iso("").has_value());
}

TEST(Country, IdsIndexTheTable) {
  const auto countries = all_countries();
  for (std::size_t i = 0; i < countries.size(); ++i) {
    const auto id = country_id(countries[i].iso);
    ASSERT_TRUE(id.has_value()) << countries[i].iso;
    EXPECT_EQ(*id, i);
    EXPECT_EQ(country_at(*id).iso, countries[i].iso);
    EXPECT_EQ(require_country_id(countries[i].iso), *id);
  }
  EXPECT_FALSE(country_id("XX").has_value());
  EXPECT_FALSE(country_id("").has_value());
  EXPECT_THROW((void)require_country_id("XX"), std::invalid_argument);
}

TEST(Country, RegionsAssigned) {
  EXPECT_EQ(country_by_iso("ES")->region, Region::kEurope);
  EXPECT_EQ(country_by_iso("CH")->region, Region::kEuropeNonEu);
  EXPECT_EQ(country_by_iso("MX")->region, Region::kLatinAmerica);
  EXPECT_EQ(country_by_iso("US")->region, Region::kNorthAmerica);
  EXPECT_EQ(country_by_iso("JP")->region, Region::kAsiaPacific);
  EXPECT_EQ(country_by_iso("ZA")->region, Region::kMiddleEastAfrica);
}

TEST(Country, RegionNames) {
  EXPECT_EQ(region_name(Region::kEurope), "Europe(EU)");
  EXPECT_EQ(region_name(Region::kLatinAmerica), "LatinAmerica");
}

TEST(Country, CoordinatesPlausible) {
  for (const auto& country : all_countries()) {
    EXPECT_GE(country.lat, -90.0) << country.iso;
    EXPECT_LE(country.lat, 90.0) << country.iso;
    EXPECT_GE(country.lon, -180.0) << country.iso;
    EXPECT_LE(country.lon, 180.0) << country.iso;
  }
}

TEST(Country, CoversPaperFootprint) {
  // Countries the paper's analyses name explicitly.
  for (const auto* iso : {"ES", "DE", "MX", "AR", "GB", "NL", "SE", "AU", "JP"}) {
    EXPECT_TRUE(country_by_iso(iso).has_value()) << iso;
  }
  EXPECT_GE(all_countries().size(), 70u);  // §3: devices active in 77 countries
}

}  // namespace
}  // namespace wtr::cellnet
