#include <gtest/gtest.h>

#include "cellnet/country.hpp"
#include "topology/world.hpp"

namespace wtr::topology {
namespace {

using cellnet::require_country_id;

cellnet::RatMask all_rats() { return cellnet::RatMask{0b111}; }

TEST(OperatorRegistry, AddAndLookup) {
  OperatorRegistry registry;
  const auto id =
      registry.add_mno(cellnet::Plmn{234, 10, 2}, "Test", require_country_id("GB"), all_rats());
  EXPECT_EQ(registry.get(id).name, "Test");
  EXPECT_EQ(registry.by_plmn(cellnet::Plmn{234, 10, 2}), id);
  EXPECT_FALSE(registry.by_plmn(cellnet::Plmn{214, 7, 2}).has_value());
}

TEST(OperatorRegistry, MvnoInheritsHost) {
  OperatorRegistry registry;
  const auto host =
      registry.add_mno(cellnet::Plmn{234, 10, 2}, "Host", require_country_id("GB"), all_rats());
  const auto mvno = registry.add_mvno(cellnet::Plmn{235, 50, 2}, "Virtual", host);
  EXPECT_EQ(registry.get(mvno).country, require_country_id("GB"));
  EXPECT_EQ(registry.get(mvno).kind, OperatorKind::kMvno);
  EXPECT_EQ(registry.radio_network_of(mvno), host);
  EXPECT_EQ(registry.radio_network_of(host), host);
}

TEST(OperatorRegistry, MnosInCountryExcludesMvnos) {
  OperatorRegistry registry;
  const auto a =
      registry.add_mno(cellnet::Plmn{234, 10, 2}, "A", require_country_id("GB"), all_rats());
  registry.add_mvno(cellnet::Plmn{235, 50, 2}, "V", a);
  registry.add_mno(cellnet::Plmn{214, 1, 2}, "B", require_country_id("ES"), all_rats());
  const auto gb = registry.mnos_in_country(require_country_id("GB"));
  ASSERT_EQ(gb.size(), 1u);
  EXPECT_EQ(gb.front(), a);
}

TEST(Agreements, DirectionalByDefault) {
  RoamingAgreementGraph graph;
  AgreementTerms terms{all_rats(), BreakoutType::kHomeRouted};
  graph.add(1, 2, terms);
  EXPECT_TRUE(graph.find(1, 2).has_value());
  EXPECT_FALSE(graph.find(2, 1).has_value());
}

TEST(Agreements, BilateralAddsBoth) {
  RoamingAgreementGraph graph;
  graph.add_bilateral(1, 2, AgreementTerms{all_rats(), BreakoutType::kLocalBreakout});
  EXPECT_TRUE(graph.find(1, 2).has_value());
  EXPECT_TRUE(graph.find(2, 1).has_value());
  EXPECT_EQ(graph.find(1, 2)->breakout, BreakoutType::kLocalBreakout);
}

TEST(Agreements, AllowsChecksRatScope) {
  RoamingAgreementGraph graph;
  AgreementTerms terms;
  terms.allowed_rats.set(cellnet::Rat::kTwoG);
  graph.add(1, 2, terms);
  EXPECT_TRUE(graph.allows(1, 2, cellnet::Rat::kTwoG));
  EXPECT_FALSE(graph.allows(1, 2, cellnet::Rat::kFourG));
  EXPECT_FALSE(graph.allows(1, 3, cellnet::Rat::kTwoG));
}

TEST(Agreements, PartnersSorted) {
  RoamingAgreementGraph graph;
  AgreementTerms terms{all_rats(), BreakoutType::kHomeRouted};
  graph.add(1, 5, terms);
  graph.add(1, 3, terms);
  graph.add(1, 3, terms);  // duplicate overwrite, not re-listed
  const auto partners = graph.partners_of(1);
  EXPECT_EQ(partners, (std::vector<OperatorId>{3, 5}));
  EXPECT_TRUE(graph.partners_of(9).empty());
}

TEST(Hubs, SharedHubResolves) {
  HubRegistry hubs;
  RoamingAgreementGraph bilateral;
  const auto hub = hubs.add_hub("H", AgreementTerms{all_rats(), BreakoutType::kIpxHubBreakout});
  hubs.add_member(hub, 1);
  hubs.add_member(hub, 2);
  const auto resolved = hubs.resolve(bilateral, 1, 2);
  EXPECT_EQ(resolved.path, RoamingPath::kViaHub);
  EXPECT_TRUE(resolved.terms.allowed_rats.has(cellnet::Rat::kFourG));
}

TEST(Hubs, PeeringResolvesOneHop) {
  HubRegistry hubs;
  RoamingAgreementGraph bilateral;
  AgreementTerms a_terms;
  a_terms.allowed_rats = all_rats();
  AgreementTerms b_terms;
  b_terms.allowed_rats.set(cellnet::Rat::kTwoG);
  b_terms.allowed_rats.set(cellnet::Rat::kThreeG);
  const auto ha = hubs.add_hub("A", a_terms);
  const auto hb = hubs.add_hub("B", b_terms);
  hubs.add_member(ha, 1);
  hubs.add_member(hb, 2);
  EXPECT_EQ(hubs.resolve(bilateral, 1, 2).path, RoamingPath::kNone);
  hubs.peer(ha, hb);
  const auto resolved = hubs.resolve(bilateral, 1, 2);
  EXPECT_EQ(resolved.path, RoamingPath::kViaHubPeering);
  // Terms intersect: no 4G via the peering.
  EXPECT_FALSE(resolved.terms.allowed_rats.has(cellnet::Rat::kFourG));
  EXPECT_TRUE(resolved.terms.allowed_rats.has(cellnet::Rat::kTwoG));
}

TEST(Hubs, BilateralTakesPrecedence) {
  HubRegistry hubs;
  RoamingAgreementGraph bilateral;
  const auto hub = hubs.add_hub("H", AgreementTerms{all_rats(), BreakoutType::kIpxHubBreakout});
  hubs.add_member(hub, 1);
  hubs.add_member(hub, 2);
  AgreementTerms direct;
  direct.allowed_rats.set(cellnet::Rat::kTwoG);
  direct.breakout = BreakoutType::kHomeRouted;
  bilateral.add(1, 2, direct);
  const auto resolved = hubs.resolve(bilateral, 1, 2);
  EXPECT_EQ(resolved.path, RoamingPath::kDirect);
  EXPECT_EQ(resolved.terms.breakout, BreakoutType::kHomeRouted);
}

TEST(Hubs, MergeTermsDegradesBreakout) {
  AgreementTerms a{all_rats(), BreakoutType::kHomeRouted};
  AgreementTerms b{all_rats(), BreakoutType::kLocalBreakout};
  EXPECT_EQ(merge_terms(a, b).breakout, BreakoutType::kIpxHubBreakout);
  EXPECT_EQ(merge_terms(a, a).breakout, BreakoutType::kHomeRouted);
}

TEST(Steering, CandidatesFilteredAndSorted) {
  WorldConfig config;
  config.build_coverage = false;
  const auto world = World::build(config);
  const auto& wk = world.well_known();
  const auto candidates = world.steering().candidates(
      world.operators(), world.bilateral(), world.hubs(), wk.es_hmno, require_country_id("GB"));
  ASSERT_FALSE(candidates.empty());
  // ES steering prefers the first GB MNO with weight 6.
  EXPECT_EQ(candidates.front().visited,
            world.operators().mnos_in_country(require_country_id("GB")).front());
  EXPECT_GT(candidates.front().weight, candidates.back().weight);
  for (const auto& candidate : candidates) {
    EXPECT_NE(candidate.roaming.path, RoamingPath::kNone);
  }
}

class WorldTest : public ::testing::Test {
 protected:
  static const World& world() {
    static const World w = [] {
      WorldConfig config;
      config.build_coverage = true;
      return World::build(config);
    }();
    return w;
  }
};

TEST_F(WorldTest, WellKnownOperatorsExist) {
  const auto& wk = world().well_known();
  EXPECT_EQ(world().operators().get(wk.es_hmno).plmn, (cellnet::Plmn{214, 7, 2}));
  EXPECT_EQ(world().operators().get(wk.nl_iot_provisioner).plmn,
            (cellnet::Plmn{204, 4, 2}));
  EXPECT_EQ(world().operators().get(wk.uk_mno).country, require_country_id("GB"));
  EXPECT_EQ(wk.uk_mvnos.size(), 3u);
  for (const auto mvno : wk.uk_mvnos) {
    EXPECT_EQ(world().operators().radio_network_of(mvno), wk.uk_mno);
  }
}

TEST_F(WorldTest, EveryCountryHasMnos) {
  for (const auto& country : cellnet::all_countries()) {
    EXPECT_GE(world().operators().mnos_in_country(require_country_id(country.iso)).size(), 3u)
        << country.iso;
  }
}

TEST_F(WorldTest, TwoGSunsetCountries) {
  for (const auto id : world().operators().mnos_in_country(require_country_id("JP"))) {
    EXPECT_FALSE(world().operators().get(id).deployed_rats.has(cellnet::Rat::kTwoG));
  }
  for (const auto id : world().operators().mnos_in_country(require_country_id("GB"))) {
    EXPECT_TRUE(world().operators().get(id).deployed_rats.has(cellnet::Rat::kTwoG));
  }
}

TEST_F(WorldTest, IntraEuRoamingIsHomeRoutedBilateral) {
  const auto es = world().operators().mnos_in_country(require_country_id("ES")).front();
  const auto fr = world().operators().mnos_in_country(require_country_id("FR")).front();
  const auto resolved = world().resolve_roaming(es, fr);
  EXPECT_EQ(resolved.path, RoamingPath::kDirect);
  EXPECT_EQ(resolved.terms.breakout, BreakoutType::kHomeRouted);
}

TEST_F(WorldTest, GlobalReachViaHubs) {
  // Any two MNOs anywhere must have some commercial path (possibly hub
  // peering) — the premise of the global IoT SIM.
  const auto& wk = world().well_known();
  for (const auto* iso : {"AU", "JP", "KE", "BR", "US", "VN"}) {
    const auto visited = world().operators().mnos_in_country(require_country_id(iso)).front();
    const auto resolved = world().resolve_roaming(wk.es_hmno, visited);
    EXPECT_NE(resolved.path, RoamingPath::kNone) << iso;
  }
}

TEST_F(WorldTest, CoverageGridsBuilt) {
  const auto& wk = world().well_known();
  EXPECT_TRUE(world().coverage().has_grid(wk.uk_mno));
  EXPECT_GT(world().coverage().total_sectors(), 10'000u);
  // MVNOs have no grid of their own.
  EXPECT_FALSE(world().coverage().has_grid(wk.uk_mvnos.front()));
}

TEST_F(WorldTest, DeterministicBuild) {
  WorldConfig config;
  config.build_coverage = false;
  const auto a = World::build(config);
  const auto b = World::build(config);
  EXPECT_EQ(a.operators().size(), b.operators().size());
  EXPECT_EQ(a.bilateral().size(), b.bilateral().size());
}

TEST(Breakout, Names) {
  EXPECT_EQ(breakout_name(BreakoutType::kHomeRouted), "home-routed");
  EXPECT_EQ(breakout_name(BreakoutType::kLocalBreakout), "local-breakout");
  EXPECT_EQ(breakout_name(BreakoutType::kIpxHubBreakout), "ipx-hub-breakout");
  EXPECT_EQ(roaming_path_name(RoamingPath::kViaHub), "via-hub");
}

}  // namespace
}  // namespace wtr::topology
