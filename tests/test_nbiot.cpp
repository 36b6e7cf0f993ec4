// NB-IoT extension (§8) — world plumbing, selection behaviour, the
// classifier's stage-0 RAT rule, and the X3 scenario knob.

#include <gtest/gtest.h>

#include "core/census.hpp"
#include "core/classifier_validation.hpp"
#include "sim/network_selection.hpp"
#include "tracegen/mno_scenario.hpp"

namespace wtr {
namespace {

using cellnet::require_country_id;

topology::WorldConfig nbiot_world_config() {
  topology::WorldConfig config;
  config.build_coverage = false;
  config.nbiot_isos = {"GB", "NL"};
  config.nbiot_roaming_enabled = true;
  return config;
}

TEST(NbIotWorld, LeadingMnoDeploysIt) {
  const auto world = topology::World::build(nbiot_world_config());
  const auto gb = world.operators().mnos_in_country(require_country_id("GB"));
  EXPECT_TRUE(world.operators().get(gb[0]).deployed_rats.has(cellnet::Rat::kNbIot));
  EXPECT_FALSE(world.operators().get(gb[1]).deployed_rats.has(cellnet::Rat::kNbIot));
  const auto fr = world.operators().mnos_in_country(require_country_id("FR"));
  EXPECT_FALSE(world.operators().get(fr[0]).deployed_rats.has(cellnet::Rat::kNbIot));
}

TEST(NbIotWorld, RoamingTrialCoversNbIot) {
  const auto world = topology::World::build(nbiot_world_config());
  const auto& wk = world.well_known();
  const auto gb = world.operators().mnos_in_country(require_country_id("GB")).front();
  const auto resolved = world.resolve_roaming(wk.nl_iot_provisioner, gb);
  EXPECT_TRUE(resolved.terms.allowed_rats.has(cellnet::Rat::kNbIot));
}

TEST(NbIotWorld, DisabledByDefault) {
  topology::WorldConfig config;
  config.build_coverage = false;
  const auto world = topology::World::build(config);
  for (const auto& op : world.operators().all()) {
    EXPECT_FALSE(op.deployed_rats.has(cellnet::Rat::kNbIot)) << op.name;
  }
}

TEST(NbIotSelection, LpwaOnlyDeviceCampsOnNbIot) {
  const auto world = topology::World::build(nbiot_world_config());
  sim::NetworkSelector selector{world};
  devices::Device device;
  device.home_operator = world.well_known().nl_iot_provisioner;
  device.capability = cellnet::RatMask::of(cellnet::Rat::kNbIot);
  device.home_country = require_country_id("NL");
  device.current_country = require_country_id("GB");
  const auto gb = world.operators().mnos_in_country(require_country_id("GB"));
  EXPECT_EQ(selector.radio_rat(device, gb[0]), cellnet::Rat::kNbIot);
  EXPECT_FALSE(selector.radio_rat(device, gb[1]).has_value());  // no NB there
  // Conventional hardware never prefers NB-IoT.
  device.capability = cellnet::RatMask{0b1111};
  EXPECT_EQ(selector.radio_rat(device, gb[0]), cellnet::Rat::kFourG);
}

TEST(NbIotClassifier, RatRuleStageZero) {
  cellnet::TacCatalog catalog;
  core::DeviceSummary nb_device;
  nb_device.device = 1;
  nb_device.radio_flags = cellnet::RatMask::of(cellnet::Rat::kNbIot);
  core::DeviceSummary plain;
  plain.device = 2;
  plain.radio_flags = cellnet::RatMask{0b001};
  const std::vector<core::DeviceSummary> devices{nb_device, plain};

  const core::DeviceClassifier classifier{catalog};
  const auto result = classifier.classify(devices);
  EXPECT_EQ(result.labels[0], core::ClassLabel::kM2M);
  EXPECT_EQ(result.m2m_by_nbiot_rat, 1u);
  EXPECT_NE(result.labels[1], core::ClassLabel::kM2M);

  core::ClassifierConfig no_rule;
  no_rule.use_nbiot_rat_rule = false;
  const core::DeviceClassifier ablated{catalog, no_rule};
  const auto ablated_result = ablated.classify(devices);
  EXPECT_EQ(ablated_result.m2m_by_nbiot_rat, 0u);
  EXPECT_NE(ablated_result.labels[0], core::ClassLabel::kM2M);
}

TEST(NbIotScenario, MeterCohortShowsNbIotFlags) {
  tracegen::MnoScenarioConfig config;
  config.seed = 77;
  config.total_devices = 2'000;
  config.nbiot_meter_share = 1.0;  // the whole NL meter fleet migrates
  tracegen::MnoScenario scenario{config};

  core::CatalogAccumulator accumulator{{scenario.observer_plmn(),
                                        scenario.family_plmns()}};
  scenario.run({&accumulator});
  const auto catalog = accumulator.finalize();
  const auto population = core::run_census(catalog, scenario.observer_plmn(),
                                           scenario.mvno_plmns(), scenario.tac_catalog());

  EXPECT_GT(population.classification.m2m_by_nbiot_rat, 30u);
  // Every stage-0 device really is M2M (perfect precision by construction).
  const auto truth = tracegen::class_truth(scenario.ground_truth());
  for (std::size_t i = 0; i < population.size(); ++i) {
    if (!population.summaries[i].radio_flags.has(cellnet::Rat::kNbIot)) continue;
    const auto it = truth.find(population.summaries[i].device);
    ASSERT_NE(it, truth.end());
    EXPECT_EQ(it->second, devices::DeviceClass::kM2M);
  }
}

TEST(NbIotScenario, ZeroShareIsTodaysWorld) {
  tracegen::MnoScenarioConfig config;
  config.seed = 78;
  config.total_devices = 1'000;
  config.nbiot_meter_share = 0.0;
  tracegen::MnoScenario scenario{config};
  core::CatalogAccumulator accumulator{{scenario.observer_plmn(),
                                        scenario.family_plmns()}};
  scenario.run({&accumulator});
  const auto catalog = accumulator.finalize();
  for (const auto& record : catalog.records()) {
    EXPECT_FALSE(record.radio_flags.has(cellnet::Rat::kNbIot));
  }
}

}  // namespace
}  // namespace wtr
