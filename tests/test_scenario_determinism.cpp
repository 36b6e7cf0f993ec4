// Determinism and cross-scenario invariants: identical seeds must replay
// identical traces; different seeds must not; and each scenario's WTRTRC1
// bytes and devices-catalog are pinned across commits.

#include <gtest/gtest.h>

#include <bit>
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
// The same scenarios fed into a CatalogAccumulator: the row count plus an
// FNV-1a-64 over every DailyDeviceRecord field and every summarize() field,
// doubles by bit pattern and APNs as text. The trace goldens above do not
// see the catalog layer, so these pin the §4.1 join and the per-device
// rollup themselves.

struct CatalogFingerprint {
  std::uint64_t rows = 0;
  std::uint64_t fnv1a64 = 0;

  friend bool operator==(const CatalogFingerprint&, const CatalogFingerprint&) = default;
};

void PrintTo(const CatalogFingerprint& f, std::ostream* os) {
  *os << "{" << f.rows << "u, 0x" << std::hex << f.fnv1a64 << std::dec << "ull}";
}

class Fnv1a64 {
 public:
  void u64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) byte(static_cast<unsigned char>(v >> (8 * i)));
  }
  void f64(double v) { u64(std::bit_cast<std::uint64_t>(v)); }
  void text(std::string_view s) {
    u64(s.size());
    for (const unsigned char c : s) byte(c);
  }
  void plmns(const std::vector<cellnet::Plmn>& list) {
    u64(list.size());
    for (const auto plmn : list) u64(plmn.key());
  }
  void apns(const std::vector<std::string>& list) {
    u64(list.size());
    for (const auto& apn : list) text(apn);
  }
  [[nodiscard]] std::uint64_t value() const noexcept { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ull;

  void byte(unsigned char c) {
    h_ ^= c;
    h_ *= 0x100000001b3ull;
  }
};

CatalogFingerprint catalog_fingerprint(core::CatalogAccumulator& accumulator) {
  const records::DevicesCatalog catalog = accumulator.finalize();
  Fnv1a64 h;
  for (const auto& r : catalog.records()) {
    h.u64(r.device);
    h.u64(static_cast<std::uint32_t>(r.day));
    h.u64(r.sim_plmn.key());
    h.plmns(r.visited_plmns);
    h.u64(r.signaling_events);
    h.u64(r.failed_events);
    h.u64(r.calls);
    h.f64(r.call_seconds);
    h.u64(r.bytes);
    h.apns(r.apns);
    h.u64(r.tac);
    h.u64(r.radio_flags.bits());
    h.u64(r.data_rats.bits());
    h.u64(r.voice_rats.bits());
    h.f64(r.centroid.lat);
    h.f64(r.centroid.lon);
    h.f64(r.gyration_m);
    h.u64(r.has_position);
  }
  const auto summaries = core::summarize(catalog);
  h.u64(summaries.size());
  for (const auto& s : summaries) {
    h.u64(s.device);
    h.u64(s.sim_plmn.key());
    h.plmns(s.visited_plmns);
    h.apns(s.apns);
    h.u64(s.tac);
    h.u64(s.active_days);
    h.u64(static_cast<std::uint32_t>(s.first_day));
    h.u64(static_cast<std::uint32_t>(s.last_day));
    h.u64(s.signaling_events);
    h.u64(s.failed_events);
    h.u64(s.calls);
    h.f64(s.call_seconds);
    h.u64(s.bytes);
    h.u64(s.radio_flags.bits());
    h.u64(s.data_rats.bits());
    h.u64(s.voice_rats.bits());
    h.f64(s.mean_daily_gyration_m);
    h.u64(s.has_position);
  }
  return {catalog.size(), h.value()};
}

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

constexpr CatalogFingerprint kMnoCatalog{6354u, 0x64fcce3f17b6899aull};

TEST(CatalogGolden, Mno) {
  EXPECT_EQ(golden_mno_catalog(1), kMnoCatalog);
}

TEST(CatalogGolden, MnoThreads4PinsThreads1Value) {
  // The merge thread replays every shard's records into the accumulator.
  EXPECT_EQ(golden_mno_catalog(4), kMnoCatalog);
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
