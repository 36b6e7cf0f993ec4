#include "cellnet/apn.hpp"

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <cstdio>
#include <string>

namespace wtr::cellnet {
namespace {

TEST(Apn, ParsePlainNetworkId) {
  const auto apn = Apn::parse("internet");
  EXPECT_EQ(apn.network_id(), "internet");
  EXPECT_FALSE(apn.operator_id().has_value());
}

TEST(Apn, ParsePaperExample) {
  // The exact example from §4.3: Centrica smart meters on Vodafone NL.
  const auto apn = Apn::parse("smhp.centricaplc.com.mnc004.mcc204.gprs");
  EXPECT_EQ(apn.network_id(), "smhp.centricaplc.com");
  ASSERT_TRUE(apn.operator_id().has_value());
  EXPECT_EQ(apn.operator_id()->mcc(), 204);
  EXPECT_EQ(apn.operator_id()->mnc(), 4);
}

TEST(Apn, ParseLowercases) {
  const auto apn = Apn::parse("SMHP.CentricaPLC.com");
  EXPECT_EQ(apn.network_id(), "smhp.centricaplc.com");
}

TEST(Apn, ToStringRoundTrip) {
  const Apn apn{"telemetry.rwe.com", Plmn{204, 4, 2}};
  EXPECT_EQ(apn.to_string(), "telemetry.rwe.com.mnc004.mcc204.gprs");
  const auto parsed = Apn::parse(apn.to_string());
  EXPECT_EQ(parsed, apn);
}

TEST(Apn, ThreeDigitMncRoundTrip) {
  const Apn apn{"iot.carrier.us", Plmn{310, 410, 3}};
  EXPECT_EQ(apn.to_string(), "iot.carrier.us.mnc410.mcc310.gprs");
  const auto parsed = Apn::parse(apn.to_string());
  ASSERT_TRUE(parsed.operator_id().has_value());
  EXPECT_EQ(parsed.operator_id()->mnc(), 410);
  EXPECT_EQ(parsed.operator_id()->mnc_digits(), 3);
}

TEST(Apn, MalformedOperatorSuffixStaysInNetworkId) {
  const auto apn = Apn::parse("thing.mncXX.mcc204.gprs");
  EXPECT_FALSE(apn.operator_id().has_value());
  EXPECT_EQ(apn.network_id(), "thing.mncxx.mcc204.gprs");
}

TEST(Apn, KeywordMatching) {
  const auto apn = Apn::parse("smhp.centricaplc.com.mnc004.mcc204.gprs");
  EXPECT_TRUE(apn.contains_keyword("centrica"));
  EXPECT_TRUE(apn.contains_keyword("smhp"));
  EXPECT_FALSE(apn.contains_keyword("rwe"));
  EXPECT_FALSE(apn.contains_keyword(""));
  // Operator suffix is not part of the network id.
  EXPECT_FALSE(apn.contains_keyword("mnc004"));
}

TEST(Apn, FirstMatchingKeyword) {
  const auto apn = Apn::parse("telemetry.scania.com");
  constexpr std::array<std::string_view, 3> keywords{"rwe", "scania", "telemetry"};
  const auto match = first_matching_keyword(apn, keywords);
  ASSERT_TRUE(match.has_value());
  EXPECT_EQ(*match, "rwe" == *match ? "rwe" : "scania");  // first in list order
  EXPECT_EQ(*match, "scania");
}

TEST(Apn, NoKeywordMatch) {
  const auto apn = Apn::parse("internet");
  constexpr std::array<std::string_view, 2> keywords{"rwe", "scania"};
  EXPECT_FALSE(first_matching_keyword(apn, keywords).has_value());
}

TEST(Apn, AsciiLower) {
  EXPECT_EQ(ascii_lower("AbC.123-X"), "abc.123-x");
  EXPECT_EQ(ascii_lower(""), "");
}

TEST(Apn, EmptyApn) {
  const Apn apn;
  EXPECT_TRUE(apn.empty());
  EXPECT_FALSE(apn.contains_keyword("x"));
  EXPECT_EQ(apn.to_string(), "");
}

// The snprintf renderer Apn::to_string replaced, kept as its reference: the
// hand-written suffix must match it byte for byte for every uint16_t field,
// including values wider than the three-digit padding.
std::string snprintf_rendering(const Apn& apn) {
  if (!apn.operator_id()) return apn.network_id();
  char suffix[32];
  std::snprintf(suffix, sizeof(suffix), ".mnc%0*u.mcc%03u.gprs", 3,
                static_cast<unsigned>(apn.operator_id()->mnc()),
                static_cast<unsigned>(apn.operator_id()->mcc()));
  return apn.network_id() + suffix;
}

TEST(Apn, ToStringMatchesSnprintfForEveryMnc) {
  for (std::uint32_t mnc = 0; mnc <= UINT16_MAX; ++mnc) {
    const Apn apn{"smhp.centricaplc.com", Plmn{204, static_cast<std::uint16_t>(mnc), 3}};
    ASSERT_EQ(apn.to_string(), snprintf_rendering(apn)) << "mnc " << mnc;
  }
}

TEST(Apn, ToStringMatchesSnprintfForEveryMcc) {
  for (std::uint32_t mcc = 0; mcc <= UINT16_MAX; ++mcc) {
    const Apn apn{"iot.carrier.us", Plmn{static_cast<std::uint16_t>(mcc), 4, 2}};
    ASSERT_EQ(apn.to_string(), snprintf_rendering(apn)) << "mcc " << mcc;
  }
}

TEST(Apn, ToStringWithoutOperatorIdIsTheNetworkId) {
  const Apn apn{"payandgo.example"};
  EXPECT_EQ(apn.to_string(), snprintf_rendering(apn));
  EXPECT_EQ(apn.to_string(), "payandgo.example");
}

}  // namespace
}  // namespace wtr::cellnet
