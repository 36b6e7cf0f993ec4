#include "topology/path_model.hpp"

#include <gtest/gtest.h>

namespace wtr::topology {
namespace {

using cellnet::require_country_id;

class PathModelTest : public ::testing::Test {
 protected:
  static const World& world() {
    static const World w = [] {
      WorldConfig config;
      config.build_coverage = false;
      return World::build(config);
    }();
    return w;
  }

  PathModel model_{world()};

  OperatorId mno(const char* iso) const {
    return world().operators().mnos_in_country(require_country_id(iso)).front();
  }
};

TEST_F(PathModelTest, DistancesArePlausible) {
  // Madrid to London ≈ 1260 km; Madrid to Sydney ≈ 17,600 km.
  EXPECT_NEAR(model_.operator_distance_km(mno("ES"), mno("GB")), 1'260.0, 200.0);
  EXPECT_GT(model_.operator_distance_km(mno("ES"), mno("AU")), 15'000.0);
  EXPECT_DOUBLE_EQ(model_.operator_distance_km(mno("ES"), mno("ES")), 0.0);
}

TEST_F(PathModelTest, LocalBreakoutIsDistanceFree) {
  const auto path = model_.data_path(mno("ES"), mno("AU"),
                                     BreakoutType::kLocalBreakout);
  EXPECT_DOUBLE_EQ(path.path_km, 0.0);
  EXPECT_EQ(path.egress_iso, "AU");
  EXPECT_GT(path.rtt_ms, 0.0);  // fixed terms remain
}

TEST_F(PathModelTest, HomeRoutedPaysTheDistance) {
  const auto near = model_.data_path(mno("ES"), mno("PT"), BreakoutType::kHomeRouted);
  const auto far = model_.data_path(mno("ES"), mno("AU"), BreakoutType::kHomeRouted);
  EXPECT_GT(far.rtt_ms, 5.0 * near.rtt_ms);
  EXPECT_EQ(far.egress_iso, "ES");
}

TEST_F(PathModelTest, OrderingHoldsEverywhere) {
  const auto& wk = world().well_known();
  for (const auto* iso : {"GB", "DE", "US", "BR", "AU", "JP", "KE"}) {
    const auto visited = mno(iso);
    const auto hr = model_.data_path(wk.es_hmno, visited, BreakoutType::kHomeRouted);
    const auto lbo = model_.data_path(wk.es_hmno, visited, BreakoutType::kLocalBreakout);
    const auto ihbo =
        model_.data_path(wk.es_hmno, visited, BreakoutType::kIpxHubBreakout);
    EXPECT_LE(lbo.rtt_ms, ihbo.rtt_ms + 1e-9) << iso;
    EXPECT_LE(ihbo.rtt_ms, hr.rtt_ms + 1e-9) << iso;
  }
}

TEST_F(PathModelTest, HubBreakoutEgressesNearVisited) {
  // An ES platform SIM in Brazil: the M2M hub has LatAm PoPs, so the IHBO
  // egress must be far closer than Spain.
  const auto& wk = world().well_known();
  const auto ihbo =
      model_.data_path(wk.es_hmno, mno("BR"), BreakoutType::kIpxHubBreakout);
  const auto hr = model_.data_path(wk.es_hmno, mno("BR"), BreakoutType::kHomeRouted);
  EXPECT_LT(ihbo.path_km, hr.path_km / 2.0);
  EXPECT_NE(ihbo.egress_iso, "ES");
}

TEST_F(PathModelTest, EffectivePathFollowsAgreements) {
  const auto& wk = world().well_known();
  // Intra-EU bilateral: home-routed by regulation-era default.
  const auto eu = model_.effective_data_path(mno("ES"), mno("FR"));
  ASSERT_TRUE(eu.has_value());
  EXPECT_EQ(eu->breakout, BreakoutType::kHomeRouted);
  // Hub-mediated reach: IPX breakout.
  const auto hub = model_.effective_data_path(wk.es_hmno, mno("VN"));
  ASSERT_TRUE(hub.has_value());
  EXPECT_EQ(hub->breakout, BreakoutType::kIpxHubBreakout);
}

TEST_F(PathModelTest, NativeAttachmentIsAlwaysLocal) {
  const auto& wk = world().well_known();
  const auto native = model_.effective_data_path(wk.uk_mvnos.front(), wk.uk_mno);
  ASSERT_TRUE(native.has_value());
  EXPECT_EQ(native->breakout, BreakoutType::kLocalBreakout);
  EXPECT_DOUBLE_EQ(native->path_km, 0.0);
}

TEST_F(PathModelTest, ConfigScalesRtt) {
  PathModelConfig slow;
  slow.ms_per_1000km = 20.0;
  const PathModel slow_model{world(), slow};
  const auto fast = model_.data_path(mno("ES"), mno("AU"), BreakoutType::kHomeRouted);
  const auto slower = slow_model.data_path(mno("ES"), mno("AU"),
                                           BreakoutType::kHomeRouted);
  EXPECT_GT(slower.rtt_ms, fast.rtt_ms * 1.5);
}

}  // namespace
}  // namespace wtr::topology
