// Property-style tests: randomized inputs, structural invariants. These
// guard the streaming-aggregation algebra (nothing dropped, nothing double
// counted) and the state machines under arbitrary legal histories.

#include <gtest/gtest.h>

#include "core/catalog_builder.hpp"
#include "core/clearing.hpp"
#include "devices/fleet_builder.hpp"
#include "sim/engine.hpp"
#include "signaling/emm_state.hpp"
#include "stats/distributions.hpp"
#include "topology/world.hpp"

namespace wtr {
namespace {

using cellnet::require_country_id;

// ---------- Catalog accumulator conservation under random streams.

class CatalogConservation : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(CatalogConservation, NothingLostNothingInvented) {
  stats::Rng rng{GetParam()};
  const cellnet::Plmn observer{234, 10, 2};
  const cellnet::Plmn mvno{235, 50, 2};
  const std::array<cellnet::Plmn, 4> sims{observer, mvno, cellnet::Plmn{204, 4, 2},
                                          cellnet::Plmn{214, 7, 2}};
  const std::array<cellnet::Plmn, 3> visiteds{observer, cellnet::Plmn{234, 30, 2},
                                              cellnet::Plmn{204, 1, 2}};

  core::CatalogAccumulator accumulator{{observer, {observer, mvno}}};

  // Expected aggregates, computed independently with the visibility rules.
  std::uint64_t expected_events = 0;
  std::uint64_t expected_failed = 0;
  std::uint64_t expected_bytes = 0;
  std::uint64_t expected_calls = 0;

  auto in_family = [&](cellnet::Plmn sim) { return sim == observer || sim == mvno; };

  for (int i = 0; i < 3'000; ++i) {
    const auto sim = sims[rng.below(sims.size())];
    const auto visited = visiteds[rng.below(visiteds.size())];
    const auto device = 1 + rng.below(40);
    const auto time =
        static_cast<stats::SimTime>(rng.below(5 * stats::kSecondsPerDay));
    const int kind = static_cast<int>(rng.below(3));
    if (kind == 0) {
      signaling::SignalingTransaction txn;
      txn.device = device;
      txn.time = time;
      txn.sim_plmn = sim;
      txn.visited_plmn = visited;
      txn.result = rng.bernoulli(0.2) ? signaling::ResultCode::kNetworkFailure
                                      : signaling::ResultCode::kOk;
      txn.rat = cellnet::Rat::kTwoG;
      txn.tac = 35'000'000;
      accumulator.on_signaling(txn, true);
      if (visited == observer) {
        ++expected_events;
        if (signaling::is_failure(txn.result)) ++expected_failed;
      }
    } else if (kind == 1) {
      records::Xdr xdr;
      xdr.device = device;
      xdr.time = time;
      xdr.sim_plmn = sim;
      xdr.visited_plmn = visited;
      xdr.bytes_up = rng.below(1'000);
      xdr.apn = cellnet::ApnId::intern("internet");
      accumulator.on_xdr(xdr);
      if (visited == observer || in_family(sim)) expected_bytes += xdr.bytes_up;
    } else {
      records::Cdr cdr;
      cdr.device = device;
      cdr.time = time;
      cdr.sim_plmn = sim;
      cdr.visited_plmn = visited;
      cdr.duration_s = 10.0;
      accumulator.on_cdr(cdr);
      if (visited == observer || in_family(sim)) ++expected_calls;
    }
  }

  const auto catalog = accumulator.finalize();
  std::uint64_t events = 0;
  std::uint64_t failed = 0;
  std::uint64_t bytes = 0;
  std::uint64_t calls = 0;
  for (const auto& record : catalog.records()) {
    events += record.signaling_events;
    failed += record.failed_events;
    bytes += record.bytes;
    calls += record.calls;
    EXPECT_GE(record.day, 0);
    EXPECT_LT(record.day, 5);
    EXPECT_TRUE(record.sim_plmn.valid());
    EXPECT_FALSE(record.visited_plmns.empty());
    EXPECT_TRUE(std::is_sorted(record.visited_plmns.begin(),
                               record.visited_plmns.end()));
  }
  EXPECT_EQ(events, expected_events);
  EXPECT_EQ(failed, expected_failed);
  EXPECT_EQ(bytes, expected_bytes);
  EXPECT_EQ(calls, expected_calls);

  // Summaries must conserve the same totals.
  const auto summaries = core::summarize(catalog);
  std::uint64_t summary_events = 0;
  std::uint64_t summary_bytes = 0;
  for (const auto& summary : summaries) {
    summary_events += summary.signaling_events;
    summary_bytes += summary.bytes;
  }
  EXPECT_EQ(summary_events, expected_events);
  EXPECT_EQ(summary_bytes, expected_bytes);
}

INSTANTIATE_TEST_SUITE_P(Seeds, CatalogConservation,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

// ---------- EMM state machine under random legal histories.

class EmmRandomWalk : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(EmmRandomWalk, InvariantsHold) {
  stats::Rng rng{GetParam()};
  signaling::EmmStateMachine emm;
  std::uint64_t attaches = 0;
  std::uint64_t successes = 0;

  for (int step = 0; step < 2'000; ++step) {
    if (!emm.attached()) {
      // Start an attach; feed two results.
      emm.begin_attach(static_cast<topology::OperatorId>(rng.below(5)));
      ++attaches;
      const auto r1 = rng.bernoulli(0.7) ? signaling::ResultCode::kOk
                                         : signaling::ResultCode::kRoamingNotAllowed;
      const auto next = emm.on_attach_step_result(r1);
      if (next) {
        const auto r2 = rng.bernoulli(0.9) ? signaling::ResultCode::kOk
                                           : signaling::ResultCode::kNetworkFailure;
        emm.on_attach_step_result(r2);
      }
      if (emm.attached()) ++successes;
    } else {
      switch (rng.below(3)) {
        case 0: emm.area_update(rng.bernoulli(0.5)); break;
        case 1: emm.detach(); break;
        case 2: emm.cancel_location(); break;
      }
    }
    // Serving network is known exactly while not detached.
    EXPECT_EQ(emm.serving_network().has_value(),
              emm.state() != signaling::EmmState::kDetached);
  }
  EXPECT_EQ(emm.procedures_emitted(signaling::Procedure::kAttach), attaches);
  // Every attach emitted exactly one Authentication.
  EXPECT_EQ(emm.procedures_emitted(signaling::Procedure::kAuthentication), attaches);
  // Detach + CancelLocation events can never exceed successful attaches.
  EXPECT_LE(emm.procedures_emitted(signaling::Procedure::kDetach) +
                emm.procedures_emitted(signaling::Procedure::kCancelLocation),
            successes);
}

INSTANTIATE_TEST_SUITE_P(Seeds, EmmRandomWalk, ::testing::Values(11, 12, 13, 14, 15));

// ---------- World structural invariants.

TEST(WorldProperties, EuBilateralsAreSymmetricHomeRouted) {
  topology::WorldConfig config;
  config.build_coverage = false;
  const auto world = topology::World::build(config);
  const auto es = world.operators().mnos_in_country(require_country_id("ES"));
  const auto fr = world.operators().mnos_in_country(require_country_id("FR"));
  for (const auto a : es) {
    for (const auto b : fr) {
      const auto ab = world.bilateral().find(a, b);
      const auto ba = world.bilateral().find(b, a);
      ASSERT_TRUE(ab.has_value());
      ASSERT_TRUE(ba.has_value());
      EXPECT_EQ(ab->breakout, topology::BreakoutType::kHomeRouted);
      EXPECT_EQ(ab->allowed_rats.bits(), ba->allowed_rats.bits());
    }
  }
}

TEST(WorldProperties, SteeringCandidatesAreCountryMnosWithPaths) {
  topology::WorldConfig config;
  config.build_coverage = false;
  const auto world = topology::World::build(config);
  const auto& wk = world.well_known();
  for (const auto* iso : {"GB", "FR", "BR", "JP", "KE"}) {
    const auto local = world.operators().mnos_in_country(require_country_id(iso));
    const auto candidates = world.candidates(wk.es_hmno, require_country_id(iso));
    for (const auto& candidate : candidates) {
      EXPECT_NE(std::find(local.begin(), local.end(), candidate.visited), local.end());
      EXPECT_NE(world.resolve_roaming(wk.es_hmno, candidate.visited).path,
                topology::RoamingPath::kNone);
    }
  }
}

TEST(WorldProperties, ResolveRoamingIsDeterministic) {
  // Two worlds built from one config agree on every (home, visited) route
  // and on every home operator's candidates in every country.
  topology::WorldConfig config;
  config.build_coverage = false;
  const auto a = topology::World::build(config);
  const auto b = topology::World::build(config);
  const auto operators = static_cast<topology::OperatorId>(a.operators().size());
  ASSERT_EQ(b.operators().size(), operators);
  const auto countries = static_cast<cellnet::CountryId>(cellnet::all_countries().size());
  for (topology::OperatorId home = 0; home < operators; ++home) {
    for (topology::OperatorId visited = 0; visited < operators; ++visited) {
      const auto ra = a.resolve_roaming(home, visited);
      const auto rb = b.resolve_roaming(home, visited);
      ASSERT_EQ(ra.path, rb.path) << home << " -> " << visited;
      ASSERT_EQ(ra.terms.allowed_rats.bits(), rb.terms.allowed_rats.bits())
          << home << " -> " << visited;
      ASSERT_EQ(ra.terms.breakout, rb.terms.breakout) << home << " -> " << visited;
    }
    for (cellnet::CountryId country = 0; country < countries; ++country) {
      const auto ca = a.candidates(home, country);
      const auto cb = b.candidates(home, country);
      ASSERT_EQ(ca.size(), cb.size()) << home << " in country " << country;
      for (std::size_t i = 0; i < ca.size(); ++i) {
        EXPECT_EQ(ca[i].visited, cb[i].visited) << home << " in country " << country;
        EXPECT_EQ(ca[i].weight, cb[i].weight) << home << " in country " << country;
      }
    }
  }
}

// ---------- Heatmap grouping conservation under random data.

class HeatmapProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(HeatmapProperty, GroupingConservesTotalsAndRowSums) {
  stats::Rng rng{GetParam()};
  stats::Heatmap heatmap;
  const std::array<const char*, 4> rows{"a", "b", "c", "d"};
  for (int i = 0; i < 500; ++i) {
    heatmap.add(rows[rng.below(rows.size())],
                "col" + std::to_string(rng.below(30)), 1 + rng.below(5));
  }
  const auto grouped = heatmap.with_minor_cols_grouped(0.02, "Other");
  EXPECT_EQ(grouped.total(), heatmap.total());
  for (const auto* row : rows) {
    EXPECT_EQ(grouped.row_total(row), heatmap.row_total(row));
    double share_sum = 0.0;
    for (const auto& col : grouped.cols_by_total()) {
      share_sum += grouped.row_share(row, col);
    }
    if (grouped.row_total(row) > 0) {
      EXPECT_NEAR(share_sum, 1.0, 1e-9);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, HeatmapProperty, ::testing::Values(21, 22, 23));

// ---------- Clearing conservation: total billed equals per-partner sum and
// is invariant to record order.

TEST(ClearingProperties, OrderInvariant) {
  const cellnet::Plmn uk{234, 10, 2};
  std::vector<records::Xdr> xdrs;
  stats::Rng rng{31};
  for (int i = 0; i < 200; ++i) {
    records::Xdr xdr;
    xdr.device = rng.below(50);
    xdr.sim_plmn = rng.bernoulli(0.5) ? cellnet::Plmn{204, 4, 2}
                                      : cellnet::Plmn{214, 7, 2};
    xdr.visited_plmn = uk;
    xdr.bytes_up = rng.below(1'000'000);
    xdrs.push_back(xdr);
  }
  auto run = [&](const std::vector<records::Xdr>& stream) {
    core::ClearingHouse books{{.self = uk, .family = {uk},
                               .side = core::ClearingHouse::Side::kVisited}};
    for (const auto& xdr : stream) books.on_xdr(xdr);
    return books;
  };
  const auto forward = run(xdrs);
  auto reversed_stream = xdrs;
  std::reverse(reversed_stream.begin(), reversed_stream.end());
  const auto reversed = run(reversed_stream);
  EXPECT_EQ(forward.statements(), reversed.statements());
  EXPECT_DOUBLE_EQ(forward.total_billed(), reversed.total_billed());
}

// ---------- Engine edge cases.

TEST(EngineEdgeCases, EmptyEngineRuns) {
  topology::WorldConfig config;
  config.build_coverage = false;
  const auto world = topology::World::build(config);
  sim::Engine engine{world, sim::Engine::Config{.seed = 1, .horizon_days = 5}};
  engine.run({});
  EXPECT_EQ(engine.wakes_processed(), 0u);
}

TEST(EngineEdgeCases, OneDayHorizonStaysInDayZero) {
  topology::WorldConfig config;
  config.build_coverage = false;
  const auto world = topology::World::build(config);
  const cellnet::TacPools pools{cellnet::TacPools::Config{.seed = 2}};
  sim::Engine engine{world, sim::Engine::Config{.seed = 2, .horizon_days = 1}};
  devices::FleetBuilder builder{world, pools, 2};
  devices::FleetSpec spec;
  spec.count = 30;
  spec.home_operator = world.well_known().uk_mno;
  spec.profile = devices::smartphone_profile();
  spec.deployment_iso = "GB";
  spec.horizon_days = 1;
  engine.add_fleet(builder.build(spec), sim::AgentOptions{});

  struct DaySink final : sim::RecordSink {
    std::int32_t max_day = 0;
    void on_signaling(const signaling::SignalingTransaction& txn, bool) override {
      max_day = std::max(max_day, stats::day_of(txn.time));
    }
  } sink;
  engine.run({&sink});
  EXPECT_GT(engine.wakes_processed(), 0u);
  EXPECT_EQ(sink.max_day, 0);  // nothing bleeds into a phantom day 1
}

TEST(FailureInjection, TransientRateSurfacesInCatalog) {
  topology::WorldConfig wconfig;
  wconfig.build_coverage = false;
  const auto world = topology::World::build(wconfig);
  const cellnet::TacPools pools{cellnet::TacPools::Config{.seed = 3}};

  sim::Engine::Config econfig{.seed = 3, .horizon_days = 4};
  econfig.outcomes.transient_failure_rate = 0.25;  // heavy weather
  sim::Engine engine{world, econfig};
  devices::FleetBuilder builder{world, pools, 3};
  devices::FleetSpec spec;
  spec.count = 150;
  spec.home_operator = world.well_known().uk_mno;
  spec.profile = devices::smartphone_profile();
  spec.deployment_iso = "GB";
  spec.horizon_days = 4;
  engine.add_fleet(builder.build(spec), sim::AgentOptions{});

  core::CatalogAccumulator accumulator{
      {world.operators().get(world.well_known().uk_mno).plmn, {}}};
  engine.run({&accumulator});
  const auto catalog = accumulator.finalize();
  std::uint64_t events = 0;
  std::uint64_t failed = 0;
  for (const auto& record : catalog.records()) {
    events += record.signaling_events;
    failed += record.failed_events;
  }
  ASSERT_GT(events, 1'000u);
  // Not every event consults the outcome policy identically (area updates
  // vs attach steps), so bound loosely around the configured rate.
  const double failed_share = static_cast<double>(failed) / static_cast<double>(events);
  EXPECT_GT(failed_share, 0.10);
  EXPECT_LT(failed_share, 0.45);
}

TEST(FailureInjection, UnknownSubscriptionRateRejectsAttaches) {
  topology::WorldConfig wconfig;
  wconfig.build_coverage = false;
  const auto world = topology::World::build(wconfig);
  const cellnet::TacPools pools{cellnet::TacPools::Config{.seed = 4}};

  sim::Engine::Config econfig{.seed = 4, .horizon_days = 2};
  econfig.outcomes.transient_failure_rate = 0.0;
  econfig.outcomes.unknown_subscription_rate = 1.0;  // HSS rejects everyone
  sim::Engine engine{world, econfig};
  devices::FleetBuilder builder{world, pools, 4};
  devices::FleetSpec spec;
  spec.count = 20;
  spec.home_operator = world.well_known().uk_mno;
  spec.profile = devices::m2m_profile(devices::Vertical::kSmartMeter);
  spec.deployment_iso = "GB";
  spec.horizon_days = 2;
  engine.add_fleet(builder.build(spec), sim::AgentOptions{});

  struct Sink final : sim::RecordSink {
    std::uint64_t ok = 0;
    std::uint64_t rejected = 0;
    std::uint64_t cdrs = 0;
    std::uint64_t xdrs = 0;
    void on_signaling(const signaling::SignalingTransaction& txn, bool) override {
      if (txn.result == signaling::ResultCode::kUnknownSubscription) {
        ++rejected;
      } else if (!signaling::is_failure(txn.result)) {
        ++ok;
      }
    }
    void on_cdr(const records::Cdr&) override { ++cdrs; }
    void on_xdr(const records::Xdr&) override { ++xdrs; }
  } sink;
  engine.run({&sink});
  EXPECT_GT(sink.rejected, 0u);
  EXPECT_EQ(sink.ok, 0u);   // nobody ever attaches
  EXPECT_EQ(sink.cdrs, 0u); // so nobody generates usage
  EXPECT_EQ(sink.xdrs, 0u);
}

}  // namespace
}  // namespace wtr
