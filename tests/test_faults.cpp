// FaultSchedule window/scoping semantics, OutcomePolicy integration, the
// empty-schedule bit-identity guarantee, and ResilienceReport bookkeeping.

#include "faults/fault_schedule.hpp"

#include <gtest/gtest.h>

#include "faults/resilience_report.hpp"
#include "signaling/outcome_policy.hpp"
#include "sim/stream_digest.hpp"
#include "stats/rng.hpp"
#include "tracegen/mno_scenario.hpp"

#include "digest_checks.hpp"

namespace wtr::faults {
namespace {

constexpr stats::SimTime kDay = stats::kSecondsPerDay;

TEST(FaultEpisode, WindowIsHalfOpen) {
  FaultEpisode episode;
  episode.begin = 100;
  episode.end = 200;
  EXPECT_FALSE(episode.active_at(99));
  EXPECT_TRUE(episode.active_at(100));   // begin inclusive
  EXPECT_TRUE(episode.active_at(199));
  EXPECT_FALSE(episode.active_at(200));  // end exclusive
}

TEST(FaultEpisode, ZeroLengthWindowIsInert) {
  FaultEpisode episode;
  episode.begin = 100;
  episode.end = 100;
  EXPECT_FALSE(episode.active_at(100));
  EXPECT_EQ(episode.severity_at(100), 0.0);

  // Inverted windows are equally inert, not UB.
  episode.end = 50;
  EXPECT_FALSE(episode.active_at(75));
}

TEST(FaultEpisode, RampScalesWithProgress) {
  FaultEpisode episode;
  episode.begin = 0;
  episode.end = 1000;
  episode.severity = 0.8;
  episode.ramp = true;
  EXPECT_DOUBLE_EQ(episode.severity_at(0), 0.0);
  EXPECT_DOUBLE_EQ(episode.severity_at(500), 0.4);
  EXPECT_NEAR(episode.severity_at(999), 0.8, 0.001);
  EXPECT_EQ(episode.severity_at(1000), 0.0);  // outside
}

TEST(FaultSchedule, SeverityClampedOnAdd) {
  FaultSchedule schedule;
  schedule.add_outage(1, 0, 10, 3.0);
  schedule.add_storm(1, 0, 10, -0.5);
  EXPECT_EQ(schedule.episodes()[0].severity, 1.0);
  EXPECT_EQ(schedule.episodes()[1].severity, 0.0);
}

TEST(FaultSchedule, OverlappingEpisodesCombineIndependently) {
  FaultSchedule schedule;
  schedule.add_outage(1, 0, 100, 0.5);
  schedule.add_outage(1, 50, 150, 0.5);
  // Inside the overlap: 1 - (1-0.5)(1-0.5) = 0.75.
  const auto both = schedule.effect_at(60, 1, topology::kInvalidHub, kAnyFaultDomain);
  EXPECT_DOUBLE_EQ(both.outage, 0.75);
  // Only the first active.
  const auto one = schedule.effect_at(10, 1, topology::kInvalidHub, kAnyFaultDomain);
  EXPECT_DOUBLE_EQ(one.outage, 0.5);
  // combined_reject folds channels the same way.
  FaultEffect effect;
  effect.outage = 0.5;
  effect.storm_reject = 0.5;
  EXPECT_DOUBLE_EQ(effect.combined_reject(), 0.75);
}

TEST(FaultSchedule, OperatorScoping) {
  FaultSchedule schedule;
  schedule.add_outage(7, 0, 100, 1.0);
  EXPECT_EQ(schedule.effect_at(50, 7, topology::kInvalidHub, 0).outage, 1.0);
  EXPECT_EQ(schedule.effect_at(50, 8, topology::kInvalidHub, 0).outage, 0.0);

  // kInvalidOperator episodes hit every network.
  FaultSchedule global;
  global.add_outage(topology::kInvalidOperator, 0, 100, 1.0);
  EXPECT_EQ(global.effect_at(50, 8, topology::kInvalidHub, 0).outage, 1.0);
}

TEST(FaultSchedule, DegradedPathRequiresHubRoutedAttempt) {
  FaultSchedule schedule;
  schedule.add_degraded_path(3, 0, 100, 0.9);
  // Home / bilateral attempts (no hub) are untouched.
  EXPECT_EQ(schedule.effect_at(50, 1, topology::kInvalidHub, 0).path_degraded, 0.0);
  EXPECT_EQ(schedule.effect_at(50, 1, 3, 0).path_degraded, 0.9);
  EXPECT_EQ(schedule.effect_at(50, 1, 4, 0).path_degraded, 0.0);  // other hub

  FaultSchedule any_hub;
  any_hub.add_degraded_path(topology::kInvalidHub, 0, 100, 0.9);
  EXPECT_EQ(any_hub.effect_at(50, 1, 4, 0).path_degraded, 0.9);
  EXPECT_EQ(any_hub.effect_at(50, 1, topology::kInvalidHub, 0).path_degraded, 0.0);
}

TEST(FaultSchedule, MisprovisioningDomainScoping) {
  FaultSchedule schedule;
  FaultEpisode episode;
  episode.kind = FaultKind::kMisprovisioning;
  episode.begin = 0;
  episode.end = 100;
  episode.severity = 0.3;
  episode.fault_domain = 7;
  schedule.add(episode);
  EXPECT_DOUBLE_EQ(schedule.effect_at(50, 1, topology::kInvalidHub, 7).misprovisioned,
                   0.3);
  EXPECT_EQ(schedule.effect_at(50, 1, topology::kInvalidHub, 8).misprovisioned, 0.0);
  // Untagged devices (domain 0) only match wildcard episodes.
  EXPECT_EQ(schedule.effect_at(50, 1, topology::kInvalidHub, kAnyFaultDomain)
                .misprovisioned,
            0.0);

  FaultSchedule wildcard;
  episode.fault_domain = kAnyFaultDomain;
  wildcard.add(episode);
  EXPECT_DOUBLE_EQ(wildcard.effect_at(50, 1, topology::kInvalidHub, 7).misprovisioned,
                   0.3);
  EXPECT_DOUBLE_EQ(wildcard.effect_at(50, 1, topology::kInvalidHub, kAnyFaultDomain)
                       .misprovisioned,
                   0.3);
}

TEST(FaultSchedule, HorizonHelpers) {
  FaultSchedule schedule;
  EXPECT_TRUE(schedule.empty());
  EXPECT_EQ(schedule.first_begin(), 0);
  EXPECT_EQ(schedule.last_end(), 0);
  schedule.add_outage(1, 3 * kDay, 4 * kDay);
  schedule.add_storm(1, kDay, 2 * kDay, 0.5);
  EXPECT_EQ(schedule.first_begin(), kDay);
  EXPECT_EQ(schedule.last_end(), 4 * kDay);
  EXPECT_EQ(schedule.size(), 2u);
}

// ---- Property tests: composition algebra over random schedules -----------

TEST(FaultScheduleProperty, OverlapCompositionMatchesIndependenceProduct) {
  // Against arbitrary overlapping episode sets, every channel of effect_at
  // must equal 1 - Π(1 - p_i) over the episodes active for that attempt,
  // and capacity_scale_at must equal Π(1 - s_i) over active capacity drops
  // — computed here with an independent reference fold.
  for (const std::uint64_t seed : {11u, 12u, 13u, 14u}) {
    stats::Rng rng{seed};
    FaultSchedule schedule;
    std::vector<FaultEpisode> reference;
    const auto episodes = 3 + rng.below(12);
    for (std::uint32_t i = 0; i < episodes; ++i) {
      FaultEpisode episode;
      episode.kind = static_cast<FaultKind>(rng.below(5));
      episode.begin = static_cast<stats::SimTime>(rng.below(5'000));
      episode.end = episode.begin + static_cast<stats::SimTime>(rng.below(5'000));
      episode.severity = rng.uniform(0.0, 1.0);
      episode.op = rng.bernoulli(0.3)
                       ? topology::kInvalidOperator
                       : static_cast<topology::OperatorId>(1 + rng.below(3));
      episode.hub = rng.bernoulli(0.3)
                        ? topology::kInvalidHub
                        : static_cast<topology::HubId>(1 + rng.below(2));
      episode.fault_domain = rng.below(3);  // 0 = wildcard
      episode.ramp = rng.bernoulli(0.5);
      schedule.add(episode);
      reference.push_back(episode);
    }

    for (int probe = 0; probe < 200; ++probe) {
      const auto now = static_cast<stats::SimTime>(rng.below(11'000));
      const auto radio = static_cast<topology::OperatorId>(1 + rng.below(3));
      const auto hub = rng.bernoulli(0.5)
                           ? topology::kInvalidHub
                           : static_cast<topology::HubId>(1 + rng.below(2));
      const std::uint32_t domain = rng.below(3);

      double keep_outage = 1.0, keep_storm = 1.0, keep_path = 1.0;
      double keep_misprov = 1.0, capacity_scale = 1.0;
      for (const auto& episode : reference) {
        const double p = episode.severity_at(now);
        if (p <= 0.0) continue;
        const bool op_match =
            episode.op == topology::kInvalidOperator || episode.op == radio;
        switch (episode.kind) {
          case FaultKind::kOutage:
            if (op_match) keep_outage *= 1.0 - p;
            break;
          case FaultKind::kSignalingStorm:
            if (op_match) keep_storm *= 1.0 - p;
            break;
          case FaultKind::kDegradedPath:
            if (hub != topology::kInvalidHub &&
                (episode.hub == topology::kInvalidHub || episode.hub == hub)) {
              keep_path *= 1.0 - p;
            }
            break;
          case FaultKind::kMisprovisioning:
            if (episode.fault_domain == kAnyFaultDomain ||
                (domain != kAnyFaultDomain && episode.fault_domain == domain)) {
              keep_misprov *= 1.0 - p;
            }
            break;
          case FaultKind::kCapacityDrop:
            if (op_match) capacity_scale *= 1.0 - p;
            break;
        }
      }

      const auto effect = schedule.effect_at(now, radio, hub, domain);
      EXPECT_DOUBLE_EQ(effect.outage, 1.0 - keep_outage);
      EXPECT_DOUBLE_EQ(effect.storm_reject, 1.0 - keep_storm);
      EXPECT_DOUBLE_EQ(effect.path_degraded, 1.0 - keep_path);
      EXPECT_DOUBLE_EQ(effect.misprovisioned, 1.0 - keep_misprov);
      EXPECT_DOUBLE_EQ(schedule.capacity_scale_at(now, radio), capacity_scale);
    }
  }
}

TEST(FaultScheduleProperty, RampBoundariesAreExactAtBeginAndEnd) {
  // For arbitrary windows: ramped severity starts at exactly 0 at `begin`,
  // grows monotonically, stays strictly below the peak, and snaps to 0 at
  // the exclusive `end`; flat episodes hold the full severity across
  // [begin, end) and are 0 at `end`.
  stats::Rng rng{99};
  for (int trial = 0; trial < 200; ++trial) {
    FaultEpisode episode;
    episode.begin = static_cast<stats::SimTime>(rng.below(100'000));
    episode.end = episode.begin + 1 + static_cast<stats::SimTime>(rng.below(100'000));
    episode.severity = rng.uniform(0.01, 1.0);

    episode.ramp = true;
    EXPECT_EQ(episode.severity_at(episode.begin - 1), 0.0);
    EXPECT_EQ(episode.severity_at(episode.begin), 0.0);  // ramp starts from zero
    EXPECT_EQ(episode.severity_at(episode.end), 0.0);    // end exclusive
    double last = 0.0;
    for (int step = 0; step < 8; ++step) {
      const auto now = episode.begin + (episode.end - episode.begin) * step / 8;
      const double s = episode.severity_at(now);
      EXPECT_GE(s, last);
      EXPECT_LT(s, episode.severity);
      last = s;
    }

    episode.ramp = false;
    EXPECT_EQ(episode.severity_at(episode.begin), episode.severity);
    EXPECT_EQ(episode.severity_at(episode.end - 1), episode.severity);
    EXPECT_EQ(episode.severity_at(episode.end), 0.0);
  }
}

TEST(FaultScheduleProperty, ZeroLengthWindowsNeverPerturbTheSchedule) {
  // Mixing arbitrarily many zero-length and inverted windows into a real
  // schedule must leave every query — effect_at across all scopes and
  // capacity_scale_at — identical to the schedule without them.
  stats::Rng rng{2026};
  FaultSchedule real;
  real.add_outage(1, 100, 400, 0.6);
  real.add_storm(2, 50, 300, 0.4);
  real.add_degraded_path(1, 0, 250, 0.7);
  real.add_misprovisioning_ramp(7, 150, 500, 0.9);
  real.add_capacity_drop(1, 200, 600, 0.5);

  FaultSchedule padded;
  for (const auto& episode : real.episodes()) padded.add(episode);
  for (int i = 0; i < 40; ++i) {
    FaultEpisode inert;
    inert.kind = static_cast<FaultKind>(rng.below(5));
    inert.begin = static_cast<stats::SimTime>(rng.below(700));
    // Half zero-length, half inverted: both must be inert, not UB.
    const bool inverted = rng.bernoulli(0.5);
    const auto span = static_cast<stats::SimTime>(1 + rng.below(300));
    inert.end = inverted ? inert.begin - span : inert.begin;
    inert.severity = 1.0;
    inert.op = topology::kInvalidOperator;  // widest possible scope
    inert.hub = topology::kInvalidHub;
    inert.fault_domain = kAnyFaultDomain;
    inert.ramp = rng.bernoulli(0.5);
    padded.add(inert);
  }
  ASSERT_EQ(padded.size(), real.size() + 40);

  for (int probe = 0; probe < 400; ++probe) {
    const auto now = static_cast<stats::SimTime>(rng.below(700));
    const auto radio = static_cast<topology::OperatorId>(1 + rng.below(3));
    const auto hub = rng.bernoulli(0.5)
                         ? topology::kInvalidHub
                         : static_cast<topology::HubId>(1 + rng.below(2));
    const std::uint32_t domain = rng.below(2) == 0 ? kAnyFaultDomain : 7;
    const auto a = real.effect_at(now, radio, hub, domain);
    const auto b = padded.effect_at(now, radio, hub, domain);
    EXPECT_EQ(a.outage, b.outage);
    EXPECT_EQ(a.storm_reject, b.storm_reject);
    EXPECT_EQ(a.path_degraded, b.path_degraded);
    EXPECT_EQ(a.misprovisioned, b.misprovisioned);
    EXPECT_EQ(real.capacity_scale_at(now, radio), padded.capacity_scale_at(now, radio));
  }
}

// ---- OutcomePolicy integration ------------------------------------------

class FaultPolicyTest : public ::testing::Test {
 protected:
  static const topology::World& world() {
    static const topology::World w = [] {
      topology::WorldConfig config;
      config.build_coverage = false;
      return topology::World::build(config);
    }();
    return w;
  }

  cellnet::RatMask all_{0b111};
  stats::Rng rng_{1};
};

TEST_F(FaultPolicyTest, HardOutageFailsEveryAttemptInWindow) {
  const auto uk = world().well_known().uk_mno;
  FaultSchedule schedule;
  schedule.add_outage(uk, 2 * kDay, 3 * kDay, 1.0);
  signaling::OutcomePolicy policy{
      signaling::OutcomePolicyConfig{.transient_failure_rate = 0.0}, &schedule};
  for (int i = 0; i < 20; ++i) {
    EXPECT_EQ(policy.evaluate(world(), 2 * kDay + i, uk, uk, cellnet::Rat::kFourG,
                              all_, all_, true, 0, rng_),
              signaling::ResultCode::kNetworkFailure);
  }
  // Outside the window the same policy is clean.
  EXPECT_EQ(policy.evaluate(world(), 3 * kDay, uk, uk, cellnet::Rat::kFourG, all_,
                            all_, true, 0, rng_),
            signaling::ResultCode::kOk);
}

TEST_F(FaultPolicyTest, MisprovisioningMapsToUnknownSubscription) {
  const auto uk = world().well_known().uk_mno;
  FaultSchedule schedule;
  FaultEpisode episode;
  episode.kind = FaultKind::kMisprovisioning;
  episode.begin = 0;
  episode.end = kDay;
  episode.severity = 1.0;
  episode.fault_domain = 7;
  schedule.add(episode);
  signaling::OutcomePolicy policy{
      signaling::OutcomePolicyConfig{.transient_failure_rate = 0.0}, &schedule};
  EXPECT_EQ(policy.evaluate(world(), 100, uk, uk, cellnet::Rat::kFourG, all_, all_,
                            true, 7, rng_),
            signaling::ResultCode::kUnknownSubscription);
  EXPECT_EQ(policy.evaluate(world(), 100, uk, uk, cellnet::Rat::kFourG, all_, all_,
                            true, 8, rng_),
            signaling::ResultCode::kOk);
}

TEST_F(FaultPolicyTest, StructuralChecksStillPrecedeFaults) {
  const auto uk = world().well_known().uk_mno;
  FaultSchedule schedule;
  schedule.add_outage(uk, 0, kDay, 1.0);
  signaling::OutcomePolicy policy{signaling::OutcomePolicyConfig{}, &schedule};
  cellnet::RatMask two_g{0b001};
  // An incapable device never reaches the fault roll.
  EXPECT_EQ(policy.evaluate(world(), 100, uk, uk, cellnet::Rat::kFourG, two_g, all_,
                            true, 0, rng_),
            signaling::ResultCode::kFeatureUnsupported);
}

// ---- Empty-schedule bit-identity and faulted determinism -----------------

sim::StreamDigest run_mno(const FaultSchedule* faults) {
  tracegen::MnoScenarioConfig config;
  config.seed = 42;
  config.total_devices = 800;
  config.build_coverage = false;
  config.faults = faults;
  tracegen::MnoScenario scenario{config};
  sim::StreamDigest digest;
  scenario.run({&digest});
  return digest;
}


TEST(FaultDeterminism, EmptyScheduleIsBitIdenticalToNullptr) {
  const FaultSchedule empty;
  const auto with_empty = run_mno(&empty);
  expect_families(with_empty);
  EXPECT_EQ(with_empty, run_mno(nullptr));
}

TEST(FaultDeterminism, FaultedRunReplaysAndDiffersFromBaseline) {
  // Operator ids are deterministic across identically-configured worlds, so
  // a probe scenario can supply them for the faulted ones.
  FaultSchedule schedule;
  {
    tracegen::MnoScenarioConfig probe_config;
    probe_config.seed = 42;
    probe_config.total_devices = 10;
    probe_config.build_coverage = false;
    tracegen::MnoScenario probe{probe_config};
    schedule.add_outage(probe.world().well_known().uk_mno, 2 * kDay, 3 * kDay, 1.0);
  }
  const auto a = run_mno(&schedule);
  const auto b = run_mno(&schedule);
  expect_families(a);
  EXPECT_EQ(a, b);
  const auto baseline = run_mno(nullptr);
  EXPECT_NE(a.hash(), baseline.hash());
  // Failed attaches trigger retries, so the outage *inflates* the stream —
  // the §5 storm mechanism emerging rather than a modelling artefact.
  EXPECT_GT(a.counts().signaling, baseline.counts().signaling);
}

// ---- ResilienceReport ----------------------------------------------------

TEST(ResilienceReportTest, CountsFailuresAndClosesRecovery) {
  topology::WorldConfig wc;
  wc.build_coverage = false;
  const auto world = topology::World::build(wc);
  const auto uk = world.well_known().uk_mno;
  const auto uk_plmn = world.operators().get(uk).plmn;

  FaultSchedule schedule;
  schedule.add_outage(uk, kDay, 2 * kDay, 1.0);
  ResilienceReport report{world, schedule};
  ASSERT_EQ(report.summary().recoveries.size(), 1u);
  EXPECT_FALSE(report.summary().recoveries.front().first_success_after.has_value());

  signaling::SignalingTransaction txn;
  txn.visited_plmn = uk_plmn;
  txn.procedure = signaling::Procedure::kUpdateLocation;

  // A failure during the outage.
  txn.time = kDay + 100;
  txn.result = signaling::ResultCode::kNetworkFailure;
  report.on_signaling(txn, true);

  // An OK *before* the window ends must not close the recovery.
  txn.time = 2 * kDay - 1;
  txn.result = signaling::ResultCode::kOk;
  report.on_signaling(txn, true);
  EXPECT_FALSE(report.summary().recoveries.front().first_success_after.has_value());

  // First OK registration after the window closes it; later ones don't move it.
  txn.time = 2 * kDay + 30;
  report.on_signaling(txn, true);
  txn.time = 2 * kDay + 500;
  report.on_signaling(txn, true);

  const auto& summary = report.summary();
  EXPECT_EQ(summary.procedures, 4u);
  EXPECT_EQ(summary.failures, 1u);
  EXPECT_EQ(summary.by_code[static_cast<std::size_t>(
                signaling::ResultCode::kNetworkFailure)],
            1u);
  EXPECT_EQ(summary.failures_by_day.at(1), 1u);
  EXPECT_EQ(summary.failures_by_operator.at(uk), 1u);
  ASSERT_TRUE(summary.recoveries.front().first_success_after.has_value());
  EXPECT_EQ(*summary.recoveries.front().first_success_after, 2 * kDay + 30);
  EXPECT_DOUBLE_EQ(*summary.recoveries.front().recovery_seconds(), 30.0);
}

}  // namespace
}  // namespace wtr::faults
