// Determinism and cross-scenario invariants: identical seeds must replay
// identical traces; different seeds must not; and each scenario's WTRTRC1
// bytes and devices-catalog are pinned across commits.

#include <gtest/gtest.h>

#include <optional>
#include <sstream>
#include <string_view>

#include "core/catalog_builder.hpp"
#include "core/platform_analysis.hpp"
#include "faults/congestion.hpp"
#include "io/bintrace.hpp"
#include "sim/stream_digest.hpp"
#include "tracegen/m2m_platform_scenario.hpp"
#include "tracegen/mno_scenario.hpp"
#include "tracegen/smip_scenario.hpp"
#include "tracegen/storm_scenario.hpp"

#include "catalog_fingerprint.hpp"
#include "digest_checks.hpp"

namespace wtr {
namespace {

sim::StreamDigest run_mno(std::uint64_t seed) {
  tracegen::MnoScenarioConfig config;
  config.seed = seed;
  config.total_devices = 800;
  config.build_coverage = false;  // faster; determinism is what we test
  tracegen::MnoScenario scenario{config};
  sim::StreamDigest digest;
  scenario.run({&digest});
  return digest;
}


TEST(Determinism, MnoScenarioReplays) {
  const auto first = run_mno(42);
  expect_families(first);
  EXPECT_EQ(first, run_mno(42));
}

TEST(Determinism, MnoScenarioSeedSensitivity) {
  EXPECT_NE(run_mno(42).hash(), run_mno(43).hash());
}

sim::StreamDigest run_platform(std::uint64_t seed) {
  tracegen::M2MPlatformConfig config;
  config.seed = seed;
  config.total_devices = 800;
  tracegen::M2MPlatformScenario scenario{config};
  sim::StreamDigest digest;
  scenario.run({&digest});
  return digest;
}

TEST(Determinism, PlatformScenarioReplays) {
  const auto first = run_platform(7);
  expect_families(first);
  EXPECT_EQ(first, run_platform(7));
}

TEST(Determinism, PlatformSeedSensitivity) {
  EXPECT_NE(run_platform(7).hash(), run_platform(8).hash());
}

TEST(Determinism, SmipScenarioReplays) {
  auto run = [](std::uint64_t seed) {
    tracegen::SmipScenarioConfig config;
    config.seed = seed;
    config.total_devices = 600;
    config.build_coverage = false;
    tracegen::SmipScenario scenario{config};
    sim::StreamDigest digest;
    scenario.run({&digest});
    return digest;
  };
  const auto first = run(9);
  expect_families(first);
  EXPECT_EQ(first, run(9));
  EXPECT_NE(run(9).hash(), run(10).hash());
}

TEST(ScenarioInvariants, GroundTruthCoversAllDevices) {
  tracegen::MnoScenarioConfig config;
  config.total_devices = 500;
  config.build_coverage = false;
  tracegen::MnoScenario scenario{config};
  EXPECT_EQ(scenario.ground_truth().size(), scenario.device_count());
  for (const auto& [device, entry] : scenario.ground_truth()) {
    EXPECT_NE(device, 0u);
    EXPECT_NE(entry.home_operator, topology::kInvalidOperator);
  }
}

TEST(ScenarioInvariants, PlatformDevicesAreAllM2M) {
  tracegen::M2MPlatformConfig config;
  config.total_devices = 500;
  tracegen::M2MPlatformScenario scenario{config};
  for (const auto& [_, entry] : scenario.ground_truth()) {
    EXPECT_EQ(entry.device_class, devices::DeviceClass::kM2M);
  }
}

TEST(ScenarioInvariants, SmipMembershipPartitions) {
  tracegen::SmipScenarioConfig config;
  config.total_devices = 400;
  config.build_coverage = false;
  tracegen::SmipScenario scenario{config};
  EXPECT_EQ(scenario.native_meters().size() + scenario.roaming_meters().size(),
            scenario.device_count());
  for (const auto hash : scenario.native_meters()) {
    EXPECT_FALSE(scenario.roaming_meters().contains(hash));
  }
}

TEST(ScenarioInvariants, MultipleSinksSeeSameStream) {
  tracegen::MnoScenarioConfig config;
  config.total_devices = 300;
  config.build_coverage = false;
  tracegen::MnoScenario scenario{config};
  sim::StreamDigest a;
  sim::StreamDigest b;
  scenario.run({&a, &b});
  expect_families(a);
  EXPECT_EQ(a, b);
}

TEST(ScenarioInvariants, ScaleChangesDeviceCountRoughlyLinearly) {
  tracegen::MnoScenarioConfig small;
  small.total_devices = 400;
  small.build_coverage = false;
  tracegen::MnoScenarioConfig big = small;
  big.total_devices = 800;
  const tracegen::MnoScenario s{small};
  const tracegen::MnoScenario b{big};
  const double ratio =
      static_cast<double>(b.device_count()) / static_cast<double>(s.device_count());
  EXPECT_NEAR(ratio, 2.0, 0.4);
}

// --- Golden scenario output across commits ----------------------------------
// The determinism tests above compare two runs of one build, so a change
// that moves every run the same way (a reordered RNG draw, a different
// border crossing) passes them. These pin each scenario's full WTRTRC1
// stream: byte length plus an FNV-1a-64 of the bytes. Fleets stay small so
// the suite also runs under TSan. A deliberate output change must update
// the pinned values on purpose.

struct TraceFingerprint {
  std::uint64_t bytes = 0;
  std::uint64_t fnv1a64 = 0;

  friend bool operator==(const TraceFingerprint&, const TraceFingerprint&) = default;
};

void PrintTo(const TraceFingerprint& f, std::ostream* os) {
  *os << "{" << f.bytes << "u, 0x" << std::hex << f.fnv1a64 << std::dec << "ull}";
}

std::uint64_t fnv1a64(std::string_view bytes) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const unsigned char c : bytes) {
    h ^= c;
    h *= 0x100000001b3ull;
  }
  return h;
}

template <typename Scenario>
TraceFingerprint fingerprint(Scenario& scenario) {
  std::ostringstream out;
  io::BinaryTraceSink sink{out};
  scenario.run({&sink});
  sink.finish();
  const std::string bytes = out.str();
  return {bytes.size(), fnv1a64(bytes)};
}

TraceFingerprint golden_mno(bool coverage, unsigned threads) {
  tracegen::MnoScenarioConfig config;
  config.seed = 42;
  config.total_devices = 1'200;
  config.days = 7;
  config.build_coverage = coverage;
  config.threads = threads;
  tracegen::MnoScenario scenario{config};
  return fingerprint(scenario);
}

constexpr TraceFingerprint kMnoCoverageOff{6434737u, 0x4ec654fb1dee96caull};

TEST(ScenarioGolden, MnoCoverageOff) {
  EXPECT_EQ(golden_mno(false, 1), kMnoCoverageOff);
}

TEST(ScenarioGolden, MnoCoverageOn) {
  EXPECT_EQ(golden_mno(true, 1), (TraceFingerprint{6558305u, 0xf0c61551ffd616a6ull}));
}

TEST(ScenarioGolden, MnoThreads4PinsThreads1Value) {
  EXPECT_EQ(golden_mno(false, 4), kMnoCoverageOff);
}

TEST(ScenarioGolden, PlatformCorridorsAndSteering) {
  // Long-haul ES and DE fleets cross EU borders on their corridors, and the
  // ES HMNO's per-country steering ranks every visited network.
  tracegen::M2MPlatformConfig config;
  config.seed = 7;
  config.total_devices = 1'200;
  config.days = 6;
  tracegen::M2MPlatformScenario scenario{config};
  EXPECT_EQ(fingerprint(scenario), (TraceFingerprint{5099660u, 0x8506671da1a0906aull}));
}

TEST(ScenarioGolden, Smip) {
  tracegen::SmipScenarioConfig config;
  config.seed = 9;
  config.total_devices = 800;
  config.days = 7;
  tracegen::SmipScenario scenario{config};
  EXPECT_EQ(fingerprint(scenario), (TraceFingerprint{4706285u, 0xe08b7dcc84f6d58cull}));
}

/// Builds the golden storm scenario and returns `measure(scenario)`.
template <typename Measure>
auto with_golden_storm(bool congested, Measure measure) {
  tracegen::StormScenarioConfig config;
  config.seed = 77;
  config.meters = 600;
  config.trackers = 150;
  config.days = 1;
  config.checkin_jitter_s = 150.0;
  config.fota_start_s = 8 * 3600;
  config.fota_failure_p = 0.4;
  config.backoff.enabled = true;
  std::optional<faults::CongestionModel> model;
  if (congested) {
    // Operator ids are world properties: a tiny identically seeded scenario
    // names the congested core without paying for the fleets.
    auto probe_config = config;
    probe_config.meters = 8;
    probe_config.trackers = 2;
    const tracegen::StormScenario probe{probe_config};
    faults::CongestionConfig congestion;
    congestion.bucket_s = 60;
    congestion.capacities = {{probe.observer_radio(), 48.0}};
    model.emplace(congestion, probe.operator_count());
    config.congestion = &*model;
  }
  tracegen::StormScenario scenario{config};
  return measure(scenario);
}

TraceFingerprint golden_storm(bool congested) {
  return with_golden_storm(congested, [](auto& scenario) { return fingerprint(scenario); });
}

TEST(ScenarioGolden, Storm) {
  EXPECT_EQ(golden_storm(false), (TraceFingerprint{305539u, 0x4c15c73291fa2eb9ull}));
}

TEST(ScenarioGolden, StormCongested) {
  EXPECT_EQ(golden_storm(true), (TraceFingerprint{306579u, 0x89ff7a9aa16523abull}));
}

// --- Golden devices-catalog across commits ----------------------------------
// The same scenarios fed into a CatalogAccumulator and fingerprinted
// (catalog_fingerprint.hpp). The trace goldens above do not see the catalog
// layer, so these pin the §4.1 join and the per-device rollup themselves.

CatalogFingerprint golden_mno_catalog(unsigned threads) {
  tracegen::MnoScenarioConfig config;
  config.seed = 42;
  config.total_devices = 1'200;
  config.days = 7;
  config.build_coverage = true;  // sector dwell: gyration in rows and summaries
  config.threads = threads;
  tracegen::MnoScenario scenario{config};
  core::CatalogAccumulator accumulator{{scenario.observer_plmn(), scenario.family_plmns()}};
  scenario.run({&accumulator});
  return catalog_fingerprint(accumulator);
}

TEST(CatalogGolden, Mno) {
  EXPECT_EQ(golden_mno_catalog(1), kMnoCatalogGolden);
}

TEST(CatalogGolden, MnoThreads4PinsThreads1Value) {
  // The merge thread replays every shard's records into the accumulator.
  EXPECT_EQ(golden_mno_catalog(4), kMnoCatalogGolden);
}

TEST(CatalogGolden, Smip) {
  tracegen::SmipScenarioConfig config;
  config.seed = 9;
  config.total_devices = 800;
  config.days = 7;
  tracegen::SmipScenario scenario{config};
  core::CatalogAccumulator accumulator{{scenario.observer_plmn(), {}}};
  scenario.run({&accumulator});
  EXPECT_EQ(catalog_fingerprint(accumulator), (CatalogFingerprint{4046u, 0x91105a08104ad33ull}));
}

TEST(CatalogGolden, StormCongested) {
  // The UK MNO and its MVNOs observe the congested herd.
  const auto catalog = with_golden_storm(true, [](tracegen::StormScenario& scenario) {
    const auto& world = scenario.world();
    const cellnet::Plmn observer = world.operators().get(world.well_known().uk_mno).plmn;
    std::vector<cellnet::Plmn> family{observer};
    for (const auto id : world.well_known().uk_mvnos) {
      family.push_back(world.operators().get(id).plmn);
    }
    core::CatalogAccumulator accumulator{{observer, family}};
    scenario.run({&accumulator});
    return catalog_fingerprint(accumulator);
  });
  EXPECT_EQ(catalog, (CatalogFingerprint{750u, 0x2b786906651691a9ull}));
}

}  // namespace
}  // namespace wtr
