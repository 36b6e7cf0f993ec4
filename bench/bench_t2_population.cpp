// T2 (§4.2–4.3 in-text tables) — roaming-label shares per day, device-class
// shares, the APN inventory, and the vendor composition of inbound roamers.
//
// Also home of the population scale sweep (README "Scaling"): each
// population in WTR_BENCH_POPULATIONS (default "10000,100000"; a 1M entry
// is the ROADMAP target and runs in a few minutes) is simulated three
// times — threads=1, threads=K, and interrupted+resumed through a
// mid-horizon checkpoint — streaming into a sim::StreamDigest instead of a
// catalog: a catalog-free stand-in for "the output bytes" at scales where
// keeping records in memory is the bottleneck. All three record streams
// must digest identically (the digest's state rides in the snapshot); the
// sweep emits population_<N>_* manifest keys plus headline records_per_s
// (the threads=1 rate) and bytes_per_agent from the largest population.

#include "bench_common.hpp"

#include <chrono>
#include <cstdio>
#include <thread>
#include <vector>

#include "cellnet/tac_catalog.hpp"
#include "ckpt/snapshot.hpp"
#include "sim/stream_digest.hpp"

namespace {

using namespace wtr;

/// Populations from WTR_BENCH_POPULATIONS ("10000,100000,1000000"); same
/// hardening as scale_override — a typo must not silently shrink the sweep.
std::vector<std::size_t> sweep_populations() {
  const std::vector<std::size_t> fallback{10'000, 100'000};
  const char* env = std::getenv("WTR_BENCH_POPULATIONS");
  if (env == nullptr || *env == '\0') return fallback;
  std::vector<std::size_t> populations;
  const char* p = env;
  while (*p != '\0') {
    char* end = nullptr;
    errno = 0;
    const unsigned long long value = std::strtoull(p, &end, 10);
    if (errno != 0 || end == p || value == 0 || (*end != ',' && *end != '\0')) {
      std::cerr << "[bench] invalid WTR_BENCH_POPULATIONS=\"" << env
                << "\" (want comma-separated positive integers); using default\n";
      return fallback;
    }
    populations.push_back(static_cast<std::size_t>(value));
    p = *end == ',' ? end + 1 : end;
  }
  return populations.empty() ? fallback : populations;
}

struct SweepLeg {
  sim::StreamDigest stream;
  std::uint64_t agents = 0;
  std::uint64_t hydrated = 0;
  std::size_t dormant_bytes = 0;   // arena residency before the run
  std::size_t resident_bytes = 0;  // arena residency after the run
  double build_s = 0.0;
  double run_s = 0.0;
};

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
      .count();
}

/// One sweep leg: build the MNO scenario at `devices`, stream the run into
/// a StreamDigest, report its hash + throughput + arena residency. `ckpt`
/// carries the interrupt/resume plumbing for the checkpoint legs (the
/// digest is registered as a checkpointable either way — registration
/// alone never changes output).
SweepLeg run_leg(std::size_t devices, unsigned threads,
                 const sim::CheckpointOptions& ckpt = {},
                 const std::string& resume_from = {}) {
  tracegen::MnoScenarioConfig config;
  config.seed = 2019;
  config.total_devices = devices;
  config.threads = threads;
  config.build_coverage = false;  // the sweep measures the engine, not analyses
  config.ckpt = ckpt;

  SweepLeg leg;
  const auto build_start = std::chrono::steady_clock::now();
  tracegen::MnoScenario scenario{config};
  leg.build_s = seconds_since(build_start);

  scenario.engine().register_checkpointable("hash_sink", &leg.stream);
  if (!resume_from.empty()) scenario.resume_from(resume_from);
  leg.dormant_bytes = scenario.engine().arena_resident_bytes();

  const auto run_start = std::chrono::steady_clock::now();
  scenario.run({&leg.stream});
  leg.run_s = seconds_since(run_start);

  leg.agents = scenario.engine().agent_count();
  leg.hydrated = scenario.engine().agents_hydrated();
  leg.resident_bytes = scenario.engine().arena_resident_bytes();
  return leg;
}

std::string hash_hex(std::uint64_t hash) {
  char buf[20];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(hash));
  return buf;
}

/// Run the scale sweep, printing one table and adding population_<N>_*
/// keys (plus headline records_per_s — the threads=1 rate — and
/// bytes_per_agent from the largest population). Returns false if any
/// determinism guard tripped.
bool run_population_sweep(obs::RunManifest& manifest) {
  const auto populations = sweep_populations();
  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  const unsigned par_threads = std::min(4u, std::max(2u, hw));

  io::Table table{{"population", "records", "records/s (t1)",
                   std::string("records/s (t") + std::to_string(par_threads) + ")",
                   "bytes/agent", "dormant bytes/agent", "guards"}};
  bool ok = true;
  std::size_t largest = 0;

  for (const std::size_t population : populations) {
    std::cerr << "[bench] scale sweep: " << population << " devices...\n";
    const SweepLeg base = run_leg(population, 1);
    const SweepLeg parallel = run_leg(population, par_threads);

    // Interrupt at mid-horizon (day 11 of 22), then resume a fresh process
    // image from the snapshot — the concatenated record stream must digest
    // identically to the uninterrupted run's.
    const std::string ckpt_path = "BENCH_t2_sweep_ckpt.bin";
    sim::CheckpointOptions stop_ckpt;
    stop_ckpt.path = ckpt_path;
    stop_ckpt.stop_after_sim_hours = 11 * 24;
    (void)run_leg(population, par_threads, stop_ckpt);
    const SweepLeg resumed = run_leg(population, par_threads, {}, ckpt_path);
    std::remove(ckpt_path.c_str());

    const bool threads_ok = parallel.stream == base.stream;
    const bool resume_ok = resumed.stream == base.stream;
    ok = ok && threads_ok && resume_ok;

    const double agents = static_cast<double>(base.agents);
    const double bytes_per_agent = static_cast<double>(base.resident_bytes) / agents;
    const double dormant_per_agent = static_cast<double>(base.dormant_bytes) / agents;
    const double rate_t1 = static_cast<double>(base.stream.records()) / base.run_s;
    const double rate_tn = static_cast<double>(parallel.stream.records()) / parallel.run_s;
    table.add_row({io::format_count(population), io::format_count(base.stream.records()),
                   io::format_count(static_cast<std::uint64_t>(rate_t1)),
                   io::format_count(static_cast<std::uint64_t>(rate_tn)),
                   io::format_fixed(bytes_per_agent), io::format_fixed(dormant_per_agent),
                   std::string(threads_ok ? "threads=ok" : "THREADS MISMATCH") + " " +
                       (resume_ok ? "resume=ok" : "RESUME MISMATCH")});

    const std::string prefix = "population_" + std::to_string(population) + "_";
    manifest.add_result(prefix + "records", base.stream.records());
    manifest.add_result(prefix + "agents", base.agents);
    manifest.add_result(prefix + "hydrated", base.hydrated);
    manifest.add_result(prefix + "records_per_s", rate_t1);
    manifest.add_result(prefix + "records_per_s_t" + std::to_string(par_threads),
                        rate_tn);
    manifest.add_result(prefix + "bytes_per_agent", bytes_per_agent);
    manifest.add_result(prefix + "dormant_bytes_per_agent", dormant_per_agent);
    manifest.add_result(prefix + "run_wall_s", base.run_s);
    manifest.add_result(prefix + "build_wall_s", base.build_s);
    manifest.add_result(prefix + "hash", hash_hex(base.stream.hash()));
    if (population >= largest) {
      largest = population;
      manifest.add_result("records_per_s", rate_t1);
      manifest.add_result("bytes_per_agent", bytes_per_agent);
    }
  }

  std::cout << '\n'
            << io::figure_banner("T2b", "population scale sweep (ROADMAP: 1M+ agents)");
  std::cout << table.render();
  if (!ok) std::cerr << "[bench] scale sweep determinism guard FAILED\n";
  return ok;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace wtr;
  namespace paper = tracegen::paper;
  const unsigned threads = bench::threads_from_args(argc, argv);

  obs::RunObservation observation;
  const auto run = bench::run_mno_scenario(16'000, 2019, &observation, threads);
  const auto& population = run.population;

  std::cout << io::figure_banner("T2", "MNO population composition (§4.2–4.3)");

  // --- Per-day roaming label shares.
  const auto label_shares = core::daily_label_shares(run.catalog, population.labeler);
  io::Table labels{{"label", "paper (per-day)", "measured (per-day)"}};
  labels.add_row({"H:H", io::format_percent(paper::kLabelShareHH),
                  io::format_percent(label_shares.share("H:H"))});
  labels.add_row({"V:H", io::format_percent(paper::kLabelShareVH),
                  io::format_percent(label_shares.share("V:H"))});
  labels.add_row({"I:H", io::format_percent(paper::kLabelShareIH),
                  io::format_percent(label_shares.share("I:H"))});
  labels.add_row({"other", "~1%",
                  io::format_percent(1.0 - label_shares.share("H:H") -
                                     label_shares.share("V:H") -
                                     label_shares.share("I:H"))});
  std::cout << labels.render();

  // --- Device class shares.
  io::Table classes{{"class", "paper", "measured"}};
  const auto& classification = population.classification;
  classes.add_row({"smart", io::format_percent(paper::kSmartShare),
                   io::format_percent(classification.share_of(core::ClassLabel::kSmart))});
  classes.add_row({"feat", io::format_percent(paper::kFeatShare),
                   io::format_percent(classification.share_of(core::ClassLabel::kFeat))});
  classes.add_row({"m2m", io::format_percent(paper::kM2MShare),
                   io::format_percent(classification.share_of(core::ClassLabel::kM2M))});
  classes.add_row(
      {"m2m-maybe", io::format_percent(paper::kM2MMaybeShare),
       io::format_percent(classification.share_of(core::ClassLabel::kM2MMaybe))});
  std::cout << '\n' << classes.render();

  // --- APN inventory (absolute counts scale with population size; the
  // paper's are shown for reference).
  io::Table apns{{"APN pipeline stage", "paper", "measured"}};
  apns.add_row({"distinct APN strings", io::format_count(paper::kDistinctApns),
                io::format_count(classification.distinct_apns)});
  apns.add_row({"M2M keywords", io::format_count(paper::kM2MKeywords),
                io::format_count(core::default_m2m_keywords().size())});
  apns.add_row({"validated M2M APNs", io::format_count(paper::kValidatedM2MApns),
                io::format_count(classification.validated_m2m_apns)});
  apns.add_row({"consumer APNs", io::format_count(paper::kConsumerApns),
                io::format_count(classification.consumer_apns)});
  apns.add_row({"devices without any APN",
                io::format_percent(paper::kDevicesWithoutApnShare),
                io::format_percent(static_cast<double>(classification.devices_without_apn) /
                                   static_cast<double>(population.size()))});
  apns.add_row({"m2m via APN match", "-",
                io::format_count(classification.m2m_by_apn)});
  apns.add_row({"m2m via property propagation", "-",
                io::format_count(classification.m2m_by_propagation)});
  std::cout << '\n' << apns.render();

  // --- Vendor composition of inbound roamers.
  stats::CategoryCounter vendors;
  const auto& catalog = run.scenario->tac_catalog();
  for (std::size_t i = 0; i < population.size(); ++i) {
    if (!population.is_inbound(i)) continue;
    if (const auto* info = catalog.lookup(population.summaries[i].tac)) {
      vendors.add(info->vendor);
    }
  }
  const double top3 = vendors.share("Gemalto") + vendors.share("Telit") +
                      vendors.share("Sierra Wireless");
  io::Table vendor_table{{"metric", "paper", "measured"}};
  bench::add_check(vendor_table, "Gemalto+Telit+Sierra share of inbound",
                   paper::kTopVendorsInboundShare, top3);
  vendor_table.add_row({"distinct vendors (population)",
                        io::format_count(paper::kDistinctVendors),
                        io::format_count(catalog.distinct_vendors())});
  vendor_table.add_row({"distinct models (population)",
                        io::format_count(paper::kDistinctModels),
                        io::format_count(catalog.distinct_models())});
  std::cout << '\n' << vendor_table.render();

  io::Table top_vendors{{"rank", "vendor", "share of inbound roamers"}};
  int rank = 0;
  for (const auto& [vendor, count] : vendors.sorted()) {
    if (++rank > 8) break;
    (void)count;
    top_vendors.add_row({std::to_string(rank), vendor,
                         io::format_percent(vendors.share(vendor))});
  }
  std::cout << '\n' << top_vendors.render();

  auto manifest = bench::make_manifest("t2", run.scenario->config().seed,
                                       run.scenario->device_count(), observation);
  const bool sweep_ok = run_population_sweep(manifest);
  manifest.add_result("label_share_hh", label_shares.share("H:H"));
  manifest.add_result("label_share_vh", label_shares.share("V:H"));
  manifest.add_result("label_share_ih", label_shares.share("I:H"));
  manifest.add_result("smart_share",
                      classification.share_of(core::ClassLabel::kSmart));
  manifest.add_result("m2m_share", classification.share_of(core::ClassLabel::kM2M));
  manifest.add_result("distinct_apns", classification.distinct_apns);
  manifest.add_result("top3_vendor_inbound_share", top3);
  bench::add_thread_metadata(manifest, run.scenario->engine(), threads);
  bench::write_manifest(manifest);
  return sweep_ok ? 0 : 1;
}
