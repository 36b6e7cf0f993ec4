// Trace export: run a small scenario and write the three raw record streams
// (radio signaling, CDRs, xDRs) as CSV — the wire formats the paper's
// datasets use — then read a file back to show the parsing API.

#include <fstream>
#include <iostream>

#include "core/trace_replay.hpp"
#include "io/csv.hpp"
#include "sim/stream_digest.hpp"
#include "tracegen/mno_scenario.hpp"

int main() {
  using namespace wtr;
  tracegen::MnoScenarioConfig config;
  config.seed = 99;
  config.total_devices = 400;
  config.days = 3;
  tracegen::MnoScenario scenario{config};

  // Each file gets a header row, then one row per record of its family.
  sim::StreamDigest digest;
  {
    std::ofstream signaling{"wtr_trace_signaling.csv"};
    std::ofstream cdr{"wtr_trace_cdr.csv"};
    std::ofstream xdr{"wtr_trace_xdr.csv"};
    core::CsvTraceExportSink exporter{signaling, cdr, xdr};
    scenario.run({&exporter, &digest});
  }
  const auto& n = digest.counts();
  std::cout << "Exported " << n.signaling + n.cdr + n.xdr
            << " records to wtr_trace_signaling.csv, "
            << "wtr_trace_cdr.csv, wtr_trace_xdr.csv\n";

  // Read a few rows back: parse the xDR APNs and decode home operators.
  std::ifstream in{"wtr_trace_xdr.csv"};
  std::string line;
  std::getline(in, line);  // header
  int shown = 0;
  while (shown < 5 && std::getline(in, line)) {
    const auto fields = io::csv_decode_row(line);
    if (!fields || fields->size() < 8) continue;
    const auto apn = cellnet::Apn::parse((*fields)[6]);
    std::cout << "  device " << (*fields)[0] << " on APN '" << apn.network_id() << "'";
    if (const auto op = apn.operator_id()) {
      std::cout << " (home operator " << op->to_string() << ")";
    }
    std::cout << ", " << (*fields)[3] << " visited, " << (*fields)[7] << "\n";
    ++shown;
  }
  return 0;
}
