// AgentArena: struct-of-arrays agent storage with lazy hydration. Unit
// tests cover the dormant/hydrated lifecycle and the v3 snapshot section;
// the scenario-level tests at the bottom drive the whole wheel + arena
// checkpoint path — interrupt a run while part of the fleet is still
// dormant, resume in a fresh scenario, and require the concatenated record
// stream to match the uninterrupted run exactly.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <stdexcept>
#include <string>

#include "ckpt/snapshot.hpp"
#include "sim/agent_arena.hpp"
#include "sim/stream_digest.hpp"
#include "tracegen/mno_scenario.hpp"
#include "util/binio.hpp"

#include "digest_checks.hpp"

namespace wtr::sim {
namespace {

using cellnet::require_country_id;

devices::Device make_device(std::int32_t arrival_day, std::int32_t departure_day) {
  devices::Device device;
  device.profile.mobility = devices::MobilityKind::kStationary;
  device.profile.stationary_jitter_m = 100.0;
  device.home_country = require_country_id("GB");
  device.current_country = require_country_id("GB");
  device.arrival_day = arrival_day;
  device.departure_day = departure_day;
  return device;
}

TEST(AgentArena, RegisterDropsEmptyWindow) {
  AgentArena arena;
  const auto options = arena.intern_options(AgentOptions{});
  EXPECT_FALSE(arena.register_device(make_device(3, 3), options, stats::Rng{7}));
  EXPECT_FALSE(arena.register_device(make_device(5, 2), options, stats::Rng{7}));
  EXPECT_EQ(arena.size(), 0u);
  const auto first = arena.register_device(make_device(0, 2), options, stats::Rng{7});
  ASSERT_TRUE(first.has_value());
  EXPECT_GE(*first, 0);
  EXPECT_LT(*first, stats::kSecondsPerDay);
  EXPECT_EQ(arena.size(), 1u);
  EXPECT_EQ(arena.first_wake(0), *first);
}

TEST(AgentArena, HydratesLazilyOnFirstAccess) {
  AgentArena arena;
  const auto options = arena.intern_options(AgentOptions{});
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(arena.register_device(make_device(i, i + 2), options,
                                      stats::Rng{100u + static_cast<unsigned>(i)}));
  }
  arena.freeze();
  EXPECT_TRUE(arena.frozen());
  EXPECT_EQ(arena.hydrated_count(), 0u);
  EXPECT_FALSE(arena.hydrated(1));

  DeviceAgent& agent = arena.agent(1);
  EXPECT_TRUE(arena.hydrated(1));
  EXPECT_EQ(arena.hydrated_count(), 1u);
  EXPECT_FALSE(arena.hydrated(0));
  EXPECT_FALSE(arena.hydrated(2));
  // Repeat access returns the same slot, not a fresh construction.
  EXPECT_EQ(&arena.agent(1), &agent);
  EXPECT_EQ(arena.hydrated_count(), 1u);
}

// A lazily hydrated agent must serialize bit-identically to one constructed
// eagerly at registration time with the same RNG stream — the determinism
// contract the engine's threads=N and resume byte-identity rest on.
TEST(AgentArena, HydrationMatchesEagerConstruction) {
  devices::Device device = make_device(1, 4);
  AgentOptions options;

  stats::Rng eager_rng{42};
  const stats::SimTime eager_first = DeviceAgent::plan_first_wake(device, eager_rng);
  DeviceAgent eager{&device, &options, eager_rng, eager_first};
  util::BinWriter eager_bytes;
  eager.save_state(eager_bytes);

  AgentArena arena;
  const auto id = arena.intern_options(options);
  const auto first = arena.register_device(device, id, stats::Rng{42});
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(*first, eager_first);
  arena.freeze();
  util::BinWriter lazy_bytes;
  arena.agent(0).save_state(lazy_bytes);

  EXPECT_EQ(lazy_bytes.bytes(), eager_bytes.bytes());
}

TEST(AgentArena, ResidentBytesTracksHydration) {
  AgentArena arena;
  const auto options = arena.intern_options(AgentOptions{});
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(arena.register_device(make_device(0, 2), options,
                                      stats::Rng{1u + static_cast<unsigned>(i)}));
  }
  arena.freeze();
  const std::size_t dormant = arena.resident_bytes();
  (void)arena.agent(3);
  (void)arena.agent(5);
  EXPECT_EQ(arena.resident_bytes(), dormant + 2 * sizeof(DeviceAgent));
}

// v3 section round trip with a mixed dormant/hydrated arena: flags and
// per-agent payloads must land on the same agents, dormant agents must stay
// dormant, and re-serializing must reproduce the original bytes.
TEST(AgentArena, SaveRestorePreservesDormancy) {
  auto build = [](AgentArena& arena) {
    const auto options = arena.intern_options(AgentOptions{});
    for (int i = 0; i < 4; ++i) {
      ASSERT_TRUE(arena.register_device(make_device(i, i + 3), options,
                                        stats::Rng{200u + static_cast<unsigned>(i)}));
    }
    arena.freeze();
  };

  AgentArena saved;
  build(saved);
  (void)saved.agent(0);
  (void)saved.agent(2);
  util::BinWriter out;
  saved.save_state(out);

  AgentArena restored;
  build(restored);
  util::BinReader in{out.bytes()};
  restored.restore_state(in);
  EXPECT_TRUE(restored.hydrated(0));
  EXPECT_FALSE(restored.hydrated(1));
  EXPECT_TRUE(restored.hydrated(2));
  EXPECT_FALSE(restored.hydrated(3));
  EXPECT_EQ(restored.hydrated_count(), 2u);

  util::BinWriter round_trip;
  restored.save_state(round_trip);
  EXPECT_EQ(round_trip.bytes(), out.bytes());
}

// Snapshots carry the current country as ISO text; text that names no
// country must fail the restore, as a mismatched device id does, rather than
// strand the device somewhere with no networks.
TEST(DeviceAgentSnapshot, RestoreRejectsUnknownOrEmptyCountry) {
  devices::Device device = make_device(1, 4);
  AgentOptions options;
  const DeviceAgent saved{&device, &options, stats::Rng{42}, 0};
  util::BinWriter out;
  saved.save_state(out);
  const std::string& bytes = out.bytes();
  const auto at = bytes.find("GB");
  ASSERT_NE(at, std::string::npos);

  std::string unknown = bytes;
  unknown.replace(at, 2, "ZZ");
  util::BinWriter empty_prefix;
  empty_prefix.u64(device.id);
  empty_prefix.str("");
  const std::string empty = empty_prefix.bytes() + bytes.substr(at + 2);

  DeviceAgent restored{&device, &options, stats::Rng{1}, 0};
  for (const std::string& corrupt : {unknown, empty}) {
    util::BinReader in{corrupt};
    EXPECT_THROW(restored.restore_state(in), std::runtime_error);
  }
  util::BinReader in{bytes};
  restored.restore_state(in);
  EXPECT_EQ(device.current_country, require_country_id("GB"));
  EXPECT_TRUE(in.exhausted());
}

// ---------------------------------------------------------------------------
// Scenario-level: interrupt/resume through the wheel + arena snapshot
// section, with part of the fleet dormant at the snapshot point.

tracegen::MnoScenarioConfig scenario_config() {
  tracegen::MnoScenarioConfig config;
  config.seed = 77;
  config.total_devices = 400;
  config.days = 6;
  config.build_coverage = false;
  return config;
}

struct ScenarioResult {
  StreamDigest stream;
  std::size_t agents = 0;
  std::size_t hydrated = 0;
  bool interrupted = false;
};

ScenarioResult run_scenario(const CheckpointOptions& ckpt,
                            const std::string& resume_path = {}) {
  auto config = scenario_config();
  config.ckpt = ckpt;
  tracegen::MnoScenario scenario{config};
  StreamDigest sink;
  scenario.engine().register_checkpointable("hash_sink", &sink);
  if (!resume_path.empty()) scenario.resume_from(resume_path);
  scenario.run({&sink});
  return ScenarioResult{sink, scenario.engine().agent_count(),
                        scenario.engine().agents_hydrated(),
                        scenario.engine().interrupted()};
}

TEST(AgentArenaCkpt, ResumeWithDormantAgentsIsByteIdentical) {
  const ScenarioResult full = run_scenario({});
  expect_families(full.stream);
  // A full run wakes every kept agent at least once (first wake always
  // precedes departure), so the arena ends fully hydrated.
  EXPECT_EQ(full.hydrated, full.agents);

  const std::string path = "test_agent_arena_v3.ckpt";
  CheckpointOptions stop;
  stop.path = path;
  stop.stop_after_sim_hours = 30;  // mid day 2 of 6
  const ScenarioResult interrupted = run_scenario(stop);
  EXPECT_TRUE(interrupted.interrupted);
  EXPECT_LT(interrupted.stream.records(), full.stream.records());
  // The MNO fleet staggers arrivals (tourists, meter cohorts) across the
  // horizon: at day 2 a real part of the fleet must still be dormant —
  // otherwise this test no longer covers the dormant branch.
  EXPECT_LT(interrupted.hydrated, interrupted.agents);
  EXPECT_NO_THROW((void)ckpt::read_snapshot(path));  // current version only

  const ScenarioResult resumed = run_scenario({}, path);
  EXPECT_EQ(resumed.stream, full.stream);
  EXPECT_EQ(resumed.hydrated, full.hydrated);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace wtr::sim
