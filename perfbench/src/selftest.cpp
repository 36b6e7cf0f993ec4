// Self-tests of the benchmark's own machinery: the census digest, the
// record-forwarding wrappers and the span export. Runs every check and
// exits nonzero if any failed. Run through `python3 perfbench/run.py --selftest`,
// which also runs the Python helper tests and the smoke pass.

#include <cmath>
#include <cstdlib>
#include <iostream>
#include <string>

#include "core/census.hpp"
#include "digest.hpp"
#include "sinks.hpp"
#include "spans.hpp"
#include "tracegen/mno_scenario.hpp"

namespace {

using namespace wtr;

int failures = 0;

void check(bool ok, const std::string& what) {
  std::cout << (ok ? "  ok    " : "  FAIL  ") << what << "\n";
  if (!ok) ++failures;
}

struct TinyRun {
  std::uint64_t digest = 0;
  perfbench::RecordCounts counts;
  double self_s = 0.0;
};

tracegen::MnoScenarioConfig tiny_config() {
  tracegen::MnoScenarioConfig config;
  config.seed = 11;
  config.total_devices = 600;
  config.days = 1;
  return config;
}

core::ClassifiedPopulation census_of(tracegen::MnoScenario& scenario,
                                     core::CatalogAccumulator& accumulator) {
  const auto catalog = accumulator.finalize();
  return core::run_census(catalog, scenario.observer_plmn(), scenario.mvno_plmns(),
                          scenario.tac_catalog());
}

enum class Wrap { kNone, kCounting, kTimed };

/// The tiny scenario into a CatalogAccumulator: bare beside an independent
/// counting sink, or behind a ForwardingSink (untimed or timed).
TinyRun tiny_run(Wrap wrap) {
  tracegen::MnoScenario scenario{tiny_config()};
  core::CatalogAccumulator accumulator{{scenario.observer_plmn(), scenario.family_plmns()}};
  TinyRun out;
  if (wrap == Wrap::kNone) {
    perfbench::CountingSink counter;
    scenario.run({&accumulator, &counter});
    out.counts = counter.counts();
  } else {
    perfbench::ForwardingSink forward{accumulator, wrap == Wrap::kTimed};
    scenario.run({&forward});
    out.counts = forward.counts();
    out.self_s = forward.self_s();
  }
  out.digest = perfbench::census_digest(census_of(scenario, accumulator));
  return out;
}

void test_fnv() {
  std::cout << "digest primitives\n";
  perfbench::Fnv64 empty;
  check(empty.value() == 0xcbf29ce484222325ull, "FNV-1a offset basis");
  perfbench::Fnv64 a;
  a.byte('a');
  check(a.value() == 0xaf63dc4c8601ec8cull, "FNV-1a of \"a\" matches the published vector");
  perfbench::Fnv64 left;
  left.str("ab");
  left.str("c");
  perfbench::Fnv64 right;
  right.str("a");
  right.str("bc");
  check(left.value() != right.value(), "strings are length-prefixed");
  check(perfbench::hex64(0xabcull) == "0000000000000abc", "hex64 pads to 16 digits");
}

void test_census_digest() {
  std::cout << "census digest\n";
  tracegen::MnoScenario scenario{tiny_config()};
  core::CatalogAccumulator accumulator{{scenario.observer_plmn(), scenario.family_plmns()}};
  scenario.run({&accumulator});
  auto population = census_of(scenario, accumulator);
  check(population.size() > 10, "tiny census has devices");
  const std::uint64_t base = perfbench::census_digest(population);

  auto& summary = population.summaries[population.size() / 2];
  summary.bytes += 1;
  check(perfbench::census_digest(population) != base, "a summary field changes the digest");
  summary.bytes -= 1;
  check(perfbench::census_digest(population) == base, "restoring it restores the digest");

  summary.mean_daily_gyration_m = std::nextafter(summary.mean_daily_gyration_m, 1e300);
  check(perfbench::census_digest(population) != base, "a one-ulp gyration change shows");
  summary.mean_daily_gyration_m = std::nextafter(summary.mean_daily_gyration_m, -1e300);

  auto& label = population.labels[population.size() / 3];
  const auto saved_label = label;
  label.net = label.net == core::NetSide::kHome ? core::NetSide::kAbroad : core::NetSide::kHome;
  check(perfbench::census_digest(population) != base, "a roaming label changes the digest");
  label = saved_label;

  auto& cls = population.classes.back();
  const auto saved_class = cls;
  cls = cls == core::ClassLabel::kM2M ? core::ClassLabel::kSmart : core::ClassLabel::kM2M;
  check(perfbench::census_digest(population) != base, "a device class changes the digest");
  cls = saved_class;
  check(perfbench::census_digest(population) == base, "digest is a pure function");
}

void test_wrappers() {
  std::cout << "forwarding wrappers\n";
  const TinyRun bare = tiny_run(Wrap::kNone);
  const TinyRun counting = tiny_run(Wrap::kCounting);
  const TinyRun timed = tiny_run(Wrap::kTimed);
  check(bare.counts.total() > 0, "the tiny run emits records");
  check(counting.digest == bare.digest, "untimed wrapper: same census digest as unwrapped");
  check(timed.digest == bare.digest, "timed wrapper: same census digest as unwrapped");
  check(counting.counts == bare.counts, "untimed wrapper: same per-family counts");
  check(timed.counts == bare.counts, "timed wrapper: same per-family counts");
  check(timed.self_s > 0.0 && counting.self_s == 0.0, "only the timed wrapper reads the clock");
}

void test_spans() {
  std::cout << "span export\n";
  check(perfbench::shift_timestamps("{\"ts\":1.500,\"dur\":2.000}", 10.0) ==
            "{\"ts\":11.500,\"dur\":2.000}",
        "timestamps shift, durations do not");
  check(perfbench::shift_timestamps("{\"name\":\"ts\"}", 5.0) == "{\"name\":\"ts\"}",
        "text that is not a timestamp is left alone");

  perfbench::SpanLog log;
  log.add("setup", "phases", 1000, 2000, {{"aggregate", 1.0}});
  const std::string engine =
      "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[{\"name\":\"window\",\"ph\":\"X\","
      "\"ts\":0.000,\"dur\":1.000,\"pid\":1,\"tid\":1}]}\n";
  const std::string doc = log.to_chrome_json(engine, 5'000'000);
  check(doc.find("\"name\":\"setup\"") != std::string::npos, "benchmark span exported");
  check(doc.find("\"ts\":5000.000") != std::string::npos,
        "engine events land on the benchmark's timebase");
  check(doc.rfind("]}\n") == doc.size() - 3, "document is closed");
}

}  // namespace

int main() {
  test_fnv();
  test_census_digest();
  test_wrappers();
  test_spans();
  std::cout << (failures == 0 ? "selftest: PASS\n" : "selftest: FAIL\n");
  return failures == 0 ? EXIT_SUCCESS : EXIT_FAILURE;
}
