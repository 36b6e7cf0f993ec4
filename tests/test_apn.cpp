#include "cellnet/apn.hpp"

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <cstdio>
#include <string>
#include <string_view>
#include <thread>
#include <type_traits>
#include <vector>

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

// --- ApnId: the process-wide intern table -----------------------------------
// Each test uses texts of its own, since the table outlives every test.

static_assert(std::is_trivially_copyable_v<ApnId>);
static_assert(sizeof(ApnId) <= 8);

TEST(ApnId, EqualTextGivesEqualId) {
  const std::string text = "equal.text.mnc004.mcc204.gprs";
  const auto a = ApnId::intern(text);
  const auto b = ApnId::intern(std::string_view{"equal.text.mnc004.mcc204.gprs"});
  EXPECT_TRUE(a == b);
  EXPECT_FALSE(a.empty());
}

TEST(ApnId, DistinctTextsGiveDistinctIds) {
  const std::array<std::string_view, 5> texts{"distinct", "distinct.", "Distinct",
                                              "distinct.mnc004.mcc204.gprs", "tcnitsid"};
  for (std::size_t i = 0; i < texts.size(); ++i) {
    for (std::size_t j = 0; j < texts.size(); ++j) {
      EXPECT_EQ(ApnId::intern(texts[i]) == ApnId::intern(texts[j]), i == j)
          << texts[i] << " vs " << texts[j];
    }
  }
}

TEST(ApnId, TextRoundTripsTheBytes) {
  const std::array<std::string, 4> texts{"round.trip.example", "line\nbreak.gprs",
                                         std::string("nul\0byte.gprs", 13), ""};
  for (const auto& text : texts) {
    EXPECT_EQ(ApnId::intern(text).text(), text);
  }
  EXPECT_EQ(ApnId::intern(texts[2]).text().size(), 13u);
}

TEST(ApnId, DefaultIdIsTheEmptyApn) {
  const ApnId none;
  EXPECT_TRUE(none.empty());
  EXPECT_TRUE(none.text().empty());
  EXPECT_TRUE(ApnId::intern("") == none);
  EXPECT_FALSE(ApnId::intern("not.empty") == none);
}

TEST(ApnId, ConcurrentInternGivesOneIdPerText) {
  // Four threads intern overlapping ranges of 200 texts, each in its own
  // order; every text must end up with one id, and distinct texts with
  // distinct ids.
  constexpr int kThreads = 4;
  constexpr int kTexts = 200;
  const auto text_of = [](int i) { return "concurrent-" + std::to_string(i) + ".example"; };
  std::vector<std::vector<ApnId>> seen(kThreads, std::vector<ApnId>(kTexts));
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int k = 0; k < kTexts / 2; ++k) {
        const int i = (t * kTexts / 4 + (t % 2 == 0 ? k : kTexts / 2 - 1 - k)) % kTexts;
        seen[t][i] = ApnId::intern(text_of(i));
      }
    });
  }
  for (auto& thread : threads) thread.join();

  std::vector<ApnId> id(kTexts);
  for (int i = 0; i < kTexts; ++i) {
    for (int t = 0; t < kThreads; ++t) {
      if (seen[t][i].empty()) continue;
      if (id[i].empty()) id[i] = seen[t][i];
      EXPECT_TRUE(seen[t][i] == id[i]) << "text " << i << " thread " << t;
    }
    ASSERT_FALSE(id[i].empty()) << "text " << i << " was never interned";
    EXPECT_EQ(id[i].text(), text_of(i));
  }
  for (int i = 0; i < kTexts; ++i) {
    for (int j = i + 1; j < kTexts; ++j) EXPECT_FALSE(id[i] == id[j]) << i << " " << j;
  }
}

}  // namespace
}  // namespace wtr::cellnet
