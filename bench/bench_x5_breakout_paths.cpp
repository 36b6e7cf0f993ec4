// X5 (extension) — the Fig. 1 breakout configurations, quantified: RTT of
// the user-plane path for a Spanish global IoT SIM under home-routed, local
// breakout and IPX-hub breakout, across near and far visited countries.
// Reproduces the §3.2 aside that HR roaming to far destinations (Spain →
// Australia) carries "serious performance penalties", which is why the M2M
// platform varies configurations per vertical.

#include "bench_common.hpp"

#include "topology/path_model.hpp"

int main() {
  using namespace wtr;

  topology::WorldConfig config;
  config.build_coverage = false;
  const auto world = topology::World::build(config);
  const topology::PathModel model{world};
  const auto es = world.well_known().es_hmno;

  std::cout << io::figure_banner(
      "X5", "Data-path RTT per roaming breakout configuration (ES global IoT SIM)");

  io::Table table{{"visited", "distance (km)", "HR RTT (ms)", "LBO RTT (ms)",
                   "IHBO RTT (ms)", "IHBO egress"}};
  for (const auto* iso : {"PT", "GB", "DE", "TR", "US", "BR", "IN", "JP", "AU"}) {
    const auto visited =
        world.operators().mnos_in_country(cellnet::require_country_id(iso)).front();
    const auto hr = model.data_path(es, visited, topology::BreakoutType::kHomeRouted);
    const auto lbo = model.data_path(es, visited, topology::BreakoutType::kLocalBreakout);
    const auto ihbo =
        model.data_path(es, visited, topology::BreakoutType::kIpxHubBreakout);
    table.add_row({iso, io::format_fixed(model.operator_distance_km(es, visited), 0),
                   io::format_fixed(hr.rtt_ms, 1), io::format_fixed(lbo.rtt_ms, 1),
                   io::format_fixed(ihbo.rtt_ms, 1), ihbo.egress_iso});
  }
  std::cout << table.render();

  // The headline example and the structural claims.
  const auto au = world.operators().mnos_in_country(cellnet::require_country_id("AU")).front();
  const auto hr_au = model.data_path(es, au, topology::BreakoutType::kHomeRouted);
  const auto lbo_au = model.data_path(es, au, topology::BreakoutType::kLocalBreakout);
  io::Table claims{{"claim", "holds", "measured"}};
  claims.add_row({"HR Spain->Australia pays a heavy penalty vs LBO",
                  hr_au.rtt_ms > 5.0 * lbo_au.rtt_ms ? "yes" : "NO",
                  io::format_fixed(hr_au.rtt_ms, 0) + "ms vs " +
                      io::format_fixed(lbo_au.rtt_ms, 0) + "ms"});
  bool ordered = true;
  for (const auto* iso : {"GB", "US", "AU", "JP"}) {
    const auto visited =
        world.operators().mnos_in_country(cellnet::require_country_id(iso)).front();
    const auto hr = model.data_path(es, visited, topology::BreakoutType::kHomeRouted);
    const auto lbo = model.data_path(es, visited, topology::BreakoutType::kLocalBreakout);
    const auto ihbo =
        model.data_path(es, visited, topology::BreakoutType::kIpxHubBreakout);
    if (!(lbo.rtt_ms <= ihbo.rtt_ms + 1e-9 && ihbo.rtt_ms <= hr.rtt_ms + 1e-9)) {
      ordered = false;
    }
  }
  claims.add_row({"LBO <= IHBO <= HR everywhere sampled", ordered ? "yes" : "NO", "-"});

  // Effective path for the default (EU) configuration is HR, §2.1.
  const auto gb = world.operators().mnos_in_country(cellnet::require_country_id("GB")).front();
  const auto effective = model.effective_data_path(es, gb);
  claims.add_row({"intra-EU default is home-routed",
                  effective && effective->breakout == topology::BreakoutType::kHomeRouted
                      ? "yes"
                      : "NO",
                  effective ? std::string(topology::breakout_name(effective->breakout))
                            : "none"});
  std::cout << '\n' << claims.render();
  return 0;
}
