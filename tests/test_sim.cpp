#include <cmath>
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <set>
#include <stdexcept>
#include <string_view>

#include "counting_new.hpp"
#include "devices/fleet_builder.hpp"
#include "sim/engine.hpp"
#include "sim/stream_digest.hpp"
#include "tracegen/mno_scenario.hpp"
#include "tracegen/smip_scenario.hpp"

namespace wtr::sim {
namespace {

using cellnet::require_country_id;

TEST(EventQueue, OrdersByTime) {
  EventQueue queue;
  queue.schedule(30, 1);
  queue.schedule(10, 2);
  queue.schedule(20, 3);
  EXPECT_EQ(queue.size(), 3u);
  EXPECT_EQ(queue.next_time(), 10);
  EXPECT_EQ(queue.pop().agent, 2u);
  EXPECT_EQ(queue.pop().agent, 3u);
  EXPECT_EQ(queue.pop().agent, 1u);
  EXPECT_TRUE(queue.empty());
  EXPECT_FALSE(queue.next_time().has_value());
}

TEST(EventQueue, TiesBreakByInsertionOrder) {
  EventQueue queue;
  queue.schedule(5, 10);
  queue.schedule(5, 20);
  queue.schedule(5, 30);
  EXPECT_EQ(queue.pop().agent, 10u);
  EXPECT_EQ(queue.pop().agent, 20u);
  EXPECT_EQ(queue.pop().agent, 30u);
}

devices::Device make_device(devices::MobilityKind mobility) {
  devices::Device device;
  device.profile.mobility = mobility;
  device.profile.commute_radius_m = 5'000.0;
  device.profile.stationary_jitter_m = 200.0;
  device.profile.p_cross_country_trip = 1.0;  // certain, for trip tests
  device.home_country = require_country_id("GB");
  device.current_country = require_country_id("GB");
  device.home_east_m = 1'000.0;
  device.home_north_m = -500.0;
  device.east_m = 1'000.0;
  device.north_m = -500.0;
  return device;
}

TEST(Mobility, StationaryStaysNearHome) {
  auto device = make_device(devices::MobilityKind::kStationary);
  stats::Rng rng{1};
  for (int i = 0; i < 200; ++i) {
    advance_position(device, 3'600.0, {}, rng);
    const double dx = device.east_m - device.home_east_m;
    const double dy = device.north_m - device.home_north_m;
    EXPECT_LT(std::sqrt(dx * dx + dy * dy), 200.0 * 6);
    EXPECT_EQ(device.current_country, require_country_id("GB"));
  }
}

TEST(Mobility, CommuterStaysInCommuteDisc) {
  auto device = make_device(devices::MobilityKind::kLocalCommuter);
  stats::Rng rng{2};
  for (int i = 0; i < 200; ++i) {
    advance_position(device, 6 * 3'600.0, {}, rng);
    const double dx = device.east_m - device.home_east_m;
    const double dy = device.north_m - device.home_north_m;
    EXPECT_LE(std::sqrt(dx * dx + dy * dy), 5'000.0 + 1.0);
  }
}

TEST(Mobility, LongHaulCrossesBordersOnlyWithCorridor) {
  auto stay = make_device(devices::MobilityKind::kLongHaul);
  stats::Rng rng{3};
  for (int i = 0; i < 50; ++i) advance_position(stay, 86'400.0, {}, rng);
  EXPECT_EQ(stay.current_country, require_country_id("GB"));

  auto go = make_device(devices::MobilityKind::kLongHaul);
  const auto corridor = make_corridor({"FR", "BE"});
  bool crossed = false;
  for (int i = 0; i < 50 && !crossed; ++i) {
    advance_position(go, 86'400.0, corridor, rng);
    crossed = go.current_country != require_country_id("GB");
  }
  EXPECT_TRUE(crossed);
}

TEST(Mobility, CorridorKeepsOrderAndRejectsUnknownCountries) {
  EXPECT_EQ(make_corridor({"FR", "GB", "BE"}),
            (TravelCorridor{require_country_id("FR"), require_country_id("GB"),
                            require_country_id("BE")}));
  try {
    (void)make_corridor({"GB", "ZZ", "FR"});
    FAIL() << "an unknown corridor country must throw";
  } catch (const std::invalid_argument& error) {
    EXPECT_NE(std::string_view{error.what()}.find("ZZ"), std::string_view::npos)
        << error.what();
  }
}

TEST(Mobility, ZeroDtIsNoOp) {
  auto device = make_device(devices::MobilityKind::kLocalCommuter);
  const double east = device.east_m;
  stats::Rng rng{4};
  advance_position(device, 0.0, {}, rng);
  EXPECT_DOUBLE_EQ(device.east_m, east);
}

class SelectionTest : public ::testing::Test {
 protected:
  static const topology::World& world() {
    static const topology::World w = [] {
      topology::WorldConfig config;
      config.build_coverage = false;
      return topology::World::build(config);
    }();
    return w;
  }

  devices::Device roamer(std::string_view country) const {
    devices::Device device;
    device.home_operator = world().well_known().es_hmno;
    device.capability = cellnet::RatMask{0b111};
    device.home_country = require_country_id("ES");
    device.current_country = require_country_id(country);
    return device;
  }
};

TEST_F(SelectionTest, HomeNetworkFirstAtHome) {
  auto device = roamer("ES");
  device.home_operator = world().operators().mnos_in_country(require_country_id("ES")).front();
  stats::Rng rng{1};
  NetworkSelector selector{world()};
  const auto scanned = selector.scan(device, std::nullopt, rng);
  ASSERT_FALSE(scanned.empty());
  EXPECT_TRUE(scanned.front().is_home_network);
  EXPECT_EQ(scanned.front().visited, device.home_operator);
}

TEST_F(SelectionTest, RoamingScanListsLocalMnos) {
  const auto device = roamer("GB");
  stats::Rng rng{2};
  NetworkSelector selector{world()};
  const auto scanned = selector.scan(device, std::nullopt, rng);
  EXPECT_GE(scanned.size(), 3u);
  for (const auto& choice : scanned) {
    EXPECT_EQ(world().operators().get(choice.visited).country, require_country_id("GB"));
    EXPECT_FALSE(choice.is_home_network);
  }
}

TEST_F(SelectionTest, ExclusionRemovesNetwork) {
  const auto device = roamer("GB");
  stats::Rng rng{3};
  NetworkSelector selector{world()};
  const auto all = selector.scan(device, std::nullopt, rng);
  ASSERT_FALSE(all.empty());
  const auto excluded = all.front().visited;
  const auto rest = selector.scan(device, excluded, rng);
  for (const auto& choice : rest) EXPECT_NE(choice.visited, excluded);
}

TEST_F(SelectionTest, RadioRatPrefers4G) {
  const auto device = roamer("GB");
  NetworkSelector selector{world()};
  const auto gb = world().operators().mnos_in_country(require_country_id("GB")).front();
  EXPECT_EQ(selector.radio_rat(device, gb), cellnet::Rat::kFourG);
}

TEST_F(SelectionTest, RadioRatRespectsHardware) {
  auto device = roamer("GB");
  device.capability = cellnet::RatMask{0b001};
  NetworkSelector selector{world()};
  const auto gb = world().operators().mnos_in_country(require_country_id("GB")).front();
  EXPECT_EQ(selector.radio_rat(device, gb), cellnet::Rat::kTwoG);
}

TEST_F(SelectionTest, RadioRatEmptyWhenNoOverlap) {
  auto device = roamer("JP");  // JP MNOs have no 2G
  device.capability = cellnet::RatMask{0b001};
  NetworkSelector selector{world()};
  const auto jp = world().operators().mnos_in_country(require_country_id("JP")).front();
  EXPECT_FALSE(selector.radio_rat(device, jp).has_value());
  stats::Rng rng{4};
  EXPECT_TRUE(selector.scan(device, std::nullopt, rng).empty());
}

TEST_F(SelectionTest, FallbackChainDescends) {
  const auto device = roamer("GB");
  NetworkSelector selector{world()};
  const auto gb = world().operators().mnos_in_country(require_country_id("GB")).front();
  EXPECT_EQ(selector.radio_fallback_rat(device, gb, cellnet::Rat::kFourG),
            cellnet::Rat::kThreeG);
  EXPECT_EQ(selector.radio_fallback_rat(device, gb, cellnet::Rat::kThreeG),
            cellnet::Rat::kTwoG);
  EXPECT_FALSE(selector.radio_fallback_rat(device, gb, cellnet::Rat::kTwoG).has_value());
}

TEST_F(SelectionTest, RoamingScanPutsReachablePartnersFirst) {
  // A roamer abroad tries the MNOs it has a commercial path to before any
  // it has none with: once an entry without a path shows up, every later
  // entry lacks one too, and the first entry has a path.
  NetworkSelector selector{world()};
  for (const auto* iso : {"GB", "FR", "US", "BR", "JP"}) {
    const auto device = roamer(iso);
    for (std::uint64_t seed = 1; seed <= 8; ++seed) {
      stats::Rng rng{seed};
      const auto scanned = selector.scan(device, std::nullopt, rng);
      ASSERT_FALSE(scanned.empty()) << iso;
      bool past_partners = false;
      for (const auto& choice : scanned) {
        EXPECT_FALSE(choice.is_home_network);
        const bool reachable =
            world().resolve_roaming(device.home_operator, choice.visited).path !=
            topology::RoamingPath::kNone;
        if (!reachable) past_partners = true;
        EXPECT_FALSE(past_partners && reachable) << iso << " seed " << seed;
      }
      EXPECT_NE(world().resolve_roaming(device.home_operator, scanned.front().visited).path,
                topology::RoamingPath::kNone)
          << iso << " seed " << seed;
    }
  }
}

TEST_F(SelectionTest, UkMvnoAbroadTriesEveryFeasibleMnoInShuffledOrder) {
  // A UK MVNO joins no hub and holds no agreement, so its SIM abroad has no
  // steering candidate: the whole scan comes from the "remaining local
  // MNOs" step and its shuffle, and the visited network rejects every
  // attempt. Every MNO's SIM has a path to every foreign MNO, so no other
  // roamer of the default world reaches that step.
  NetworkSelector selector{world()};
  const auto mvno = world().well_known().uk_mvnos.front();
  for (const auto* iso : {"ES", "FR", "US", "JP"}) {
    auto device = roamer(iso);
    device.home_operator = mvno;
    device.home_country = require_country_id("GB");
    std::vector<topology::OperatorId> feasible;
    for (const auto id : world().operators().mnos_in_country(require_country_id(iso))) {
      if (selector.radio_rat(device, id)) feasible.push_back(id);
    }
    ASSERT_GE(feasible.size(), 3u) << iso;
    std::set<std::vector<topology::OperatorId>> orders;
    for (std::uint64_t seed = 1; seed <= 8; ++seed) {
      stats::Rng rng{seed};
      std::vector<topology::OperatorId> order;
      for (const auto& choice : selector.scan(device, std::nullopt, rng)) {
        EXPECT_FALSE(choice.is_home_network);
        EXPECT_EQ(world().resolve_roaming(mvno, choice.visited).path,
                  topology::RoamingPath::kNone)
            << iso;
        order.push_back(choice.visited);
      }
      auto sorted = order;
      std::sort(sorted.begin(), sorted.end());
      EXPECT_EQ(sorted, feasible) << iso << " seed " << seed;
      orders.insert(order);
    }
    EXPECT_GT(orders.size(), 1u) << iso << ": every seed gave the same order";
  }
}

TEST(NetworkSelector, ScanDoesNotAllocate) {
  // A scan runs on every attach round; its lists are fixed-capacity, so
  // it never reaches the heap: at home, roaming with steering candidates,
  // a UK MVNO's SIM abroad (the shuffled no-path step), with and without an
  // excluded network.
  topology::WorldConfig config;
  config.build_coverage = false;
  const auto world = topology::World::build(config);
  const auto& wk = world.well_known();
  const NetworkSelector selector{world};
  auto device_in = [&](topology::OperatorId home, const char* iso) {
    devices::Device device;
    device.home_operator = home;
    device.capability = cellnet::RatMask{0b111};
    device.home_country = world.operators().get(home).country;
    device.current_country = require_country_id(iso);
    return device;
  };
  const std::array devices{device_in(wk.uk_mno, "GB"), device_in(wk.uk_mvnos.front(), "GB"),
                           device_in(wk.es_hmno, "GB"), device_in(wk.es_hmno, "FR"),
                           device_in(wk.uk_mvnos.front(), "ES")};
  stats::Rng rng{7};
  constexpr int kScans = 1'200;
  std::size_t entries = 0;
  const std::uint64_t before = counting_new::allocations();
  for (int i = 0; i < kScans; ++i) {
    const auto& device = devices[static_cast<std::size_t>(i) % devices.size()];
    std::optional<topology::OperatorId> exclude;
    if (i % 2 == 1) exclude = world.operators().mnos_in_country(device.current_country).front();
    entries += selector.scan(device, exclude, rng).size();
  }
  const std::uint64_t allocations = counting_new::allocations() - before;
  EXPECT_EQ(allocations, 0u);
  EXPECT_GT(entries, static_cast<std::size_t>(2 * kScans));
}

// Allocations per record inside the engine run, threads=1: with network
// selection off the heap, what is left is mostly fixed per-run cost.
template <typename Scenario, typename Config>
double allocations_per_record(Config config) {
  config.threads = 1;
  Scenario scenario{config};
  StreamDigest digest;
  const std::uint64_t before = counting_new::allocations();
  scenario.run({&digest});
  const std::uint64_t allocations = counting_new::allocations() - before;
  EXPECT_GT(digest.records(), 10'000u);
  return static_cast<double>(allocations) / static_cast<double>(digest.records());
}

TEST(EngineAllocations, MnoRunStaysBelowOnePerTwentyRecords) {
  tracegen::MnoScenarioConfig config;
  config.seed = 42;
  config.total_devices = 1'200;
  config.days = 7;
  config.build_coverage = true;
  EXPECT_LT((allocations_per_record<tracegen::MnoScenario>(config)), 0.05);
}

TEST(EngineAllocations, SmipRunStaysBelowOnePerTwentyRecords) {
  tracegen::SmipScenarioConfig config;
  config.seed = 9;
  config.total_devices = 800;
  config.days = 7;
  EXPECT_LT((allocations_per_record<tracegen::SmipScenario>(config)), 0.05);
}

// --- Engine-level smoke tests with a counting sink.

class CountingSink final : public RecordSink {
 public:
  std::uint64_t signaling = 0;
  std::uint64_t ok_signaling = 0;
  std::uint64_t cdrs = 0;
  std::uint64_t xdrs = 0;
  double dwell_seconds = 0.0;
  std::vector<signaling::SignalingTransaction> transactions;

  void on_signaling(const signaling::SignalingTransaction& txn, bool) override {
    ++signaling;
    if (!signaling::is_failure(txn.result)) ++ok_signaling;
    if (transactions.size() < 100'000) transactions.push_back(txn);
  }
  void on_cdr(const records::Cdr&) override { ++cdrs; }
  void on_xdr(const records::Xdr&) override { ++xdrs; }
  void on_dwell(signaling::DeviceHash, std::int32_t, cellnet::Plmn,
                const cellnet::GeoPoint&, double seconds) override {
    dwell_seconds += seconds;
  }
};

class EngineTest : public ::testing::Test {
 protected:
  static const topology::World& world() {
    static const topology::World w = [] {
      topology::WorldConfig config;
      config.build_coverage = true;
      return topology::World::build(config);
    }();
    return w;
  }
  static const cellnet::TacPools& pools() {
    static const cellnet::TacPools p{cellnet::TacPools::Config{.seed = 5}};
    return p;
  }
};

TEST_F(EngineTest, NativeFleetGeneratesAllRecordTypes) {
  Engine engine{world(), Engine::Config{.seed = 1, .horizon_days = 5}};
  devices::FleetBuilder builder{world(), pools(), 1};
  devices::FleetSpec spec;
  spec.count = 100;
  spec.home_operator = world().well_known().uk_mno;
  spec.profile = devices::smartphone_profile();
  spec.deployment_iso = "GB";
  spec.horizon_days = 5;
  engine.add_fleet(builder.build(spec), AgentOptions{});

  CountingSink sink;
  engine.run({&sink});
  EXPECT_GT(engine.wakes_processed(), 500u);
  EXPECT_GT(sink.signaling, 500u);
  EXPECT_GT(sink.ok_signaling, 0u);
  EXPECT_GT(sink.cdrs, 0u);
  EXPECT_GT(sink.xdrs, 0u);
  EXPECT_GT(sink.dwell_seconds, 0.0);
}

TEST_F(EngineTest, DeterministicAcrossRuns) {
  auto run_once = [&] {
    Engine engine{world(), Engine::Config{.seed = 9, .horizon_days = 4}};
    devices::FleetBuilder builder{world(), pools(), 9};
    devices::FleetSpec spec;
    spec.count = 60;
    spec.home_operator = world().well_known().uk_mno;
    spec.profile = devices::smartphone_profile();
    spec.deployment_iso = "GB";
    spec.horizon_days = 4;
    engine.add_fleet(builder.build(spec), AgentOptions{});
    CountingSink sink;
    engine.run({&sink});
    return std::tuple{engine.wakes_processed(), sink.signaling, sink.cdrs, sink.xdrs,
                      sink.dwell_seconds};
  };
  EXPECT_EQ(run_once(), run_once());
}

TEST_F(EngineTest, DeadSubscriptionsOnlyFail) {
  Engine engine{world(), Engine::Config{.seed = 2, .horizon_days = 3}};
  devices::FleetBuilder builder{world(), pools(), 2};
  devices::FleetSpec spec;
  spec.count = 20;
  spec.home_operator = world().well_known().uk_mno;
  spec.profile = devices::m2m_profile(devices::Vertical::kSmartMeter);
  spec.deployment_iso = "GB";
  spec.horizon_days = 3;
  spec.subscription_ok_rate = 0.0;
  engine.add_fleet(builder.build(spec), AgentOptions{});
  CountingSink sink;
  engine.run({&sink});
  EXPECT_GT(sink.signaling, 0u);
  EXPECT_EQ(sink.ok_signaling, 0u);  // every procedure rejected
  EXPECT_EQ(sink.cdrs, 0u);          // never attached → no usage
  EXPECT_EQ(sink.xdrs, 0u);
}

TEST_F(EngineTest, RecordsStayWithinHorizonAndWindows) {
  Engine engine{world(), Engine::Config{.seed = 3, .horizon_days = 6}};
  devices::FleetBuilder builder{world(), pools(), 3};
  devices::FleetSpec spec;
  spec.count = 50;
  spec.home_operator = world().well_known().uk_mno;
  spec.profile = devices::m2m_profile(devices::Vertical::kPosTerminal);
  spec.deployment_iso = "GB";
  spec.horizon_days = 6;
  engine.add_fleet(builder.build(spec), AgentOptions{});
  CountingSink sink;
  engine.run({&sink});
  for (const auto& txn : sink.transactions) {
    EXPECT_GE(txn.time, 0);
    EXPECT_LE(txn.time, stats::day_start(6));
    EXPECT_NE(txn.tac, 0u);
  }
}

TEST_F(EngineTest, RunTwiceThrows) {
  Engine engine{world(), Engine::Config{.seed = 6, .horizon_days = 1}};
  devices::FleetBuilder builder{world(), pools(), 6};
  devices::FleetSpec spec;
  spec.count = 5;
  spec.home_operator = world().well_known().uk_mno;
  spec.profile = devices::smartphone_profile();
  spec.deployment_iso = "GB";
  spec.horizon_days = 1;
  engine.add_fleet(builder.build(spec), AgentOptions{});
  CountingSink sink;
  engine.run({&sink});
  // A second run would silently continue from drained state and emit
  // nothing — surfacing that as a logic error is the whole point.
  EXPECT_THROW(engine.run({&sink}), std::logic_error);
}

TEST(MultiSinkTest, RejectsNullSink) {
  MultiSink fanout;
  EXPECT_THROW(fanout.add(nullptr), std::invalid_argument);
  CountingSink sink;
  fanout.add(&sink);  // non-null still fine
  fanout.on_cdr(records::Cdr{});
  EXPECT_EQ(sink.cdrs, 1u);
}

TEST_F(EngineTest, RoamersUseVisitedCountryNetworks) {
  Engine engine{world(), Engine::Config{.seed = 4, .horizon_days = 4}};
  devices::FleetBuilder builder{world(), pools(), 4};
  devices::FleetSpec spec;
  spec.count = 40;
  spec.home_operator = world().well_known().nl_iot_provisioner;
  spec.profile = devices::m2m_profile(devices::Vertical::kSmartMeter);
  spec.deployment_iso = "GB";
  spec.horizon_days = 4;
  engine.add_fleet(builder.build(spec), AgentOptions{});
  CountingSink sink;
  engine.run({&sink});
  ASSERT_GT(sink.transactions.size(), 0u);
  for (const auto& txn : sink.transactions) {
    EXPECT_EQ(txn.sim_plmn, (cellnet::Plmn{204, 4, 2}));
    EXPECT_EQ(txn.visited_plmn.mcc(), 234);  // a GB network
  }
}

}  // namespace
}  // namespace wtr::sim
