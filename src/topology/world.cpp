#include "topology/world.hpp"

#include <algorithm>
#include <array>
#include <cassert>
#include <string_view>
#include <utility>

#include "cellnet/country.hpp"
#include "stats/rng.hpp"

namespace wtr::topology {

namespace {

// MNOs of every country, before the pinned operators; with at most one
// pinned operator per country this stays within kMaxMnosPerCountry.
constexpr std::uint32_t kMnosPerCountry = 3;
static_assert(kMnosPerCountry < kMaxMnosPerCountry);

// Countries directly interconnected to the M2M hub's PoPs (the carrier in
// §3 peers directly with MNOs in 19 countries, mostly Europe + LatAm).
constexpr std::array<std::string_view, 19> kM2mHubDirectIsos{
    "ES", "DE", "MX", "AR", "GB", "NL", "PT", "FR", "IT", "BE",
    "IE", "AT", "PL", "RO", "BR", "CL", "CO", "PE", "UY"};

template <typename Isos>
bool contains(const Isos& isos, std::string_view iso) {
  return std::find(std::begin(isos), std::end(isos), iso) != std::end(isos);
}

cellnet::RatMask full_rats() {
  cellnet::RatMask rats;
  rats.set(cellnet::Rat::kTwoG);
  rats.set(cellnet::Rat::kThreeG);
  rats.set(cellnet::Rat::kFourG);
  return rats;
}

cellnet::RatMask no_2g_rats() {
  cellnet::RatMask rats;
  rats.set(cellnet::Rat::kThreeG);
  rats.set(cellnet::Rat::kFourG);
  return rats;
}

}  // namespace

World World::build(const WorldConfig& config) {
  World world;
  stats::Rng rng{config.seed};

  // --- Operators: kMnosPerCountry MNOs per country, MNC = 01, 03, 05...
  // A few well-known PLMNs are pinned so traces carry recognizable codes:
  // the NL IoT provisioner is 204-04 (the paper's example APN decodes to
  // mnc004.mcc204) and the ES HMNO is 214-07.
  const auto countries = cellnet::all_countries();
  for (std::size_t c = 0; c < countries.size(); ++c) {
    const auto& country = countries[c];
    const bool sunset_2g = contains(config.two_g_sunset_isos, country.iso);
    const bool nbiot = contains(config.nbiot_isos, country.iso);
    for (std::uint32_t i = 0; i < kMnosPerCountry; ++i) {
      const auto mnc = static_cast<std::uint16_t>(1 + 2 * i);
      const cellnet::Plmn plmn{country.mcc, mnc, 2};
      const std::string name =
          std::string(country.iso) + "-MNO" + std::to_string(i + 1);
      auto rats = sunset_2g ? no_2g_rats() : full_rats();
      if (nbiot && i == 0) rats.set(cellnet::Rat::kNbIot);  // leading MNO only
      world.operators_.add_mno(plmn, name, static_cast<cellnet::CountryId>(c), rats);
    }
  }

  // Pinned special operators (added on top of the per-country set).
  using cellnet::require_country_id;
  world.well_known_.es_hmno = world.operators_.add_mno(
      cellnet::Plmn{214, 7, 2}, "ES-GlobalIoT", require_country_id("ES"), full_rats());
  world.well_known_.de_hmno = world.operators_.add_mno(
      cellnet::Plmn{262, 12, 2}, "DE-GlobalIoT", require_country_id("DE"), full_rats());
  world.well_known_.mx_hmno = world.operators_.add_mno(
      cellnet::Plmn{334, 20, 2}, "MX-GlobalIoT", require_country_id("MX"), full_rats());
  world.well_known_.ar_hmno = world.operators_.add_mno(
      cellnet::Plmn{722, 34, 2}, "AR-GlobalIoT", require_country_id("AR"), full_rats());
  world.well_known_.nl_iot_provisioner = world.operators_.add_mno(
      cellnet::Plmn{204, 4, 2}, "NL-IoTProvisioner", require_country_id("NL"), full_rats());

  // The UK MNO under study is GB-MNO1; it hosts three MVNOs (the V:H label
  // population of §4.2 is about 33% of devices per day).
  const auto uk_mnos = world.operators_.mnos_in_country(require_country_id("GB"));
  assert(!uk_mnos.empty());
  world.well_known_.uk_mno = uk_mnos.front();
  for (int v = 0; v < 3; ++v) {
    const cellnet::Plmn plmn{235, static_cast<std::uint16_t>(50 + v), 2};
    world.well_known_.uk_mvnos.push_back(world.operators_.add_mvno(
        plmn, "GB-MVNO" + std::to_string(v + 1), world.well_known_.uk_mno));
  }

  // --- Hubs. The M2M hub interconnects the HMNOs with MNOs in its direct
  // PoP countries; the partner hub covers everyone else; the two peer.
  AgreementTerms hub_terms;
  hub_terms.allowed_rats = full_rats();
  if (config.nbiot_roaming_enabled) hub_terms.allowed_rats.set(cellnet::Rat::kNbIot);
  hub_terms.breakout = BreakoutType::kIpxHubBreakout;
  world.well_known_.m2m_hub = world.hubs_.add_hub("GlobalCarrierIPX", hub_terms);

  AgreementTerms partner_terms;
  partner_terms.allowed_rats = full_rats();
  partner_terms.breakout = BreakoutType::kIpxHubBreakout;
  world.well_known_.partner_hub = world.hubs_.add_hub("PartnerCarrierIPX", partner_terms);
  world.hubs_.peer(world.well_known_.m2m_hub, world.well_known_.partner_hub);

  for (const auto& op : world.operators_.all()) {
    if (op.kind != OperatorKind::kMno) continue;
    const bool direct =
        contains(kM2mHubDirectIsos, cellnet::country_at(op.country).iso);
    world.hubs_.add_member(direct ? world.well_known_.m2m_hub
                                  : world.well_known_.partner_hub,
                           op.id);
  }
  // The HMNOs are always members of the platform's hub.
  for (OperatorId hmno : {world.well_known_.es_hmno, world.well_known_.de_hmno,
                          world.well_known_.mx_hmno, world.well_known_.ar_hmno,
                          world.well_known_.nl_iot_provisioner}) {
    world.hubs_.add_member(world.well_known_.m2m_hub, hmno);
  }

  // --- Bilateral agreements. Dense intra-EU mesh (RLAH regulation makes
  // European roaming the norm; the paper finds HR is the default breakout
  // in Europe), plus sparse long-haul bilaterals between large markets.
  AgreementTerms eu_terms;
  eu_terms.allowed_rats = full_rats();
  if (config.nbiot_roaming_enabled) eu_terms.allowed_rats.set(cellnet::Rat::kNbIot);
  eu_terms.breakout = BreakoutType::kHomeRouted;

  std::vector<OperatorId> eu_mnos;
  for (const auto& op : world.operators_.all()) {
    if (op.kind != OperatorKind::kMno) continue;
    if (cellnet::country_at(op.country).region == cellnet::Region::kEurope) {
      eu_mnos.push_back(op.id);
    }
  }
  for (std::size_t i = 0; i < eu_mnos.size(); ++i) {
    for (std::size_t j = i + 1; j < eu_mnos.size(); ++j) {
      const auto& a = world.operators_.get(eu_mnos[i]);
      const auto& b = world.operators_.get(eu_mnos[j]);
      if (a.country == b.country) continue;  // no national roaming here
      world.bilateral_.add_bilateral(a.id, b.id, eu_terms);
    }
  }

  // Long-haul bilaterals: the first MNO of each country pair among the big
  // markets, randomized to leave gaps. A gap changes the path (hub instead
  // of direct, so the terms and breakout), never whether one exists: every
  // MNO joins one of the two peered hubs above. Only the UK MVNOs' SIMs,
  // which join no hub and hold no agreement, draw RoamingNotAllowed from a
  // missing agreement: on every network but their host's.
  const std::vector<std::string> big_markets{"US", "MX", "BR", "AR", "CL", "CO",
                                             "AU", "JP", "CN", "IN", "ZA", "TR"};
  AgreementTerms longhaul_terms;
  longhaul_terms.allowed_rats = full_rats();
  longhaul_terms.breakout = BreakoutType::kHomeRouted;
  for (std::size_t i = 0; i < big_markets.size(); ++i) {
    for (std::size_t j = i + 1; j < big_markets.size(); ++j) {
      if (!rng.bernoulli(0.5)) continue;
      const auto a = world.operators_.mnos_in_country(require_country_id(big_markets[i]));
      const auto b = world.operators_.mnos_in_country(require_country_id(big_markets[j]));
      if (a.empty() || b.empty()) continue;
      world.bilateral_.add_bilateral(a.front(), b.front(), longhaul_terms);
    }
  }

  // Latin American restrictions (§3.2: "local restrictions on roaming in
  // countries in Latin America"): the MX and AR HMNOs keep bilateral reach
  // to a handful of neighbours only — their hub terms stay, but scenario
  // steering keeps their fleets mostly at home.
  for (const auto& iso : {"GT", "CO", "CL"}) {
    const auto partners = world.operators_.mnos_in_country(require_country_id(iso));
    if (!partners.empty()) {
      world.bilateral_.add_bilateral(world.well_known_.mx_hmno, partners.front(),
                                     longhaul_terms);
    }
  }
  for (const auto& iso : {"UY", "PY", "CL"}) {
    const auto partners = world.operators_.mnos_in_country(require_country_id(iso));
    if (!partners.empty()) {
      world.bilateral_.add_bilateral(world.well_known_.ar_hmno, partners.front(),
                                     longhaul_terms);
    }
  }

  // --- Coverage grids for every MNO.
  if (config.build_coverage) {
    for (const auto& op : world.operators_.all()) {
      if (op.kind != OperatorKind::kMno) continue;
      const auto& country = cellnet::country_at(op.country);
      const cellnet::GeoPoint anchor{country.lat, country.lon};
      world.coverage_.build_grid(op, anchor, stats::mix64(config.seed, op.plmn.key()));
    }
  }

  // --- Route table: every (home, visited) pair resolved once, after the
  // last agreement and hub membership above.
  const std::size_t n = world.operators_.size();
  world.routes_.resize(n * n);
  for (OperatorId home = 0; home < n; ++home) {
    for (OperatorId visited = 0; visited < n; ++visited) {
      world.routes_[world.route_index(home, visited)].roaming =
          world.hubs_.resolve(world.bilateral_, home, visited);
    }
  }

  // --- Steering: the platform prefers the cheapest partner per country;
  // modelled as a strong preference for the first MNO of each country for
  // the ES HMNO (it concentrates 75% of signaling on 10 VMNOs, §3.2).
  for (std::size_t c = 0; c < countries.size(); ++c) {
    const auto mnos = world.operators_.mnos_in_country(static_cast<cellnet::CountryId>(c));
    if (!mnos.empty()) world.set_steering_weight(world.well_known_.es_hmno, mnos.front(), 10.0);
  }

  return world;
}

CandidateList World::candidates(OperatorId home, cellnet::CountryId country) const {
  CandidateList out;
  for (OperatorId visited : operators_.mnos_in_country(country)) {
    if (visited == home) continue;
    const Route& route = routes_[route_index(home, visited)];
    if (route.roaming.path == RoamingPath::kNone) continue;
    out.push_back(VisitedCandidate{visited, route.weight});
  }
  // A stable insertion sort by descending weight over entries already in id
  // order: ties stay by id, and a list this short needs nothing more.
  for (std::size_t i = 1; i < out.size(); ++i) {
    for (std::size_t j = i; j > 0 && out[j].weight > out[j - 1].weight; --j) {
      std::swap(out[j], out[j - 1]);
    }
  }
  return out;
}

}  // namespace wtr::topology
