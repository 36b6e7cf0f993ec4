#include <cmath>
#include <gtest/gtest.h>

#include <stdexcept>
#include <string_view>

#include "devices/fleet_builder.hpp"
#include "sim/engine.hpp"

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
