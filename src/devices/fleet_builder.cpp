#include "devices/fleet_builder.hpp"

#include <cassert>
#include <cmath>

#include "stats/distributions.hpp"

namespace wtr::devices {

FleetBuilder::FleetBuilder(const topology::World& world,
                           const cellnet::TacPools& tac_pools, std::uint64_t seed)
    : world_(world), tac_pools_(tac_pools), rng_(seed), seed_(seed) {}

cellnet::Imsi FleetBuilder::allocate_imsi(const FleetSpec& spec, std::size_t index) {
  if (spec.imsi_range) {
    assert(index < spec.imsi_range->size());
    return spec.imsi_range->at(index);
  }
  const auto plmn = world_.operators().get(spec.home_operator).plmn;
  // General pool: MSINs from 1e8 upward, per home operator.
  auto& counter = msin_counters_[spec.home_operator];
  return cellnet::Imsi{plmn, 100'000'000ULL + counter++};
}

std::vector<Device> FleetBuilder::build(const FleetSpec& spec) {
  assert(spec.home_operator != topology::kInvalidOperator);
  assert(spec.horizon_days > 0);
  const cellnet::CountryId deployment = cellnet::require_country_id(spec.deployment_iso);
  std::vector<Device> fleet;
  fleet.reserve(spec.count);

  const auto home_plmn = world_.operators().get(spec.home_operator).plmn;
  const auto companies = companies_of(spec.profile.vertical);
  std::vector<double> company_weights;
  for (const auto& company : companies) company_weights.push_back(company.weight);

  for (std::size_t i = 0; i < spec.count; ++i) {
    Device device;
    device.id = stats::mix64(seed_ ^ 0x9ddfea08eb382d69ULL, next_device_);
    ++next_device_;
    device.imsi = allocate_imsi(spec, i);
    device.home_operator = spec.home_operator;
    device.profile = spec.profile;
    device.subscription_ok = rng_.bernoulli(spec.subscription_ok_rate);
    device.fault_domain = spec.fault_domain;

    // Equipment: TAC from the category pool (optionally vendor-restricted),
    // hardware capability from the catalog entry.
    cellnet::Tac tac;
    if (spec.use_filler_equipment) {
      tac = tac_pools_.draw_filler(rng_);
    } else if (!spec.restrict_vendors.empty()) {
      const auto& vendor =
          spec.restrict_vendors[rng_.below(spec.restrict_vendors.size())];
      tac = tac_pools_.draw_vendor(rng_, spec.profile.equipment, vendor);
    } else {
      tac = tac_pools_.draw(rng_, spec.profile.equipment);
    }
    device.imei = cellnet::Imei{tac, static_cast<std::uint32_t>(rng_.below(1'000'000))};
    const auto* info = tac_pools_.catalog().lookup(tac);
    assert(info != nullptr);
    device.capability = info->bands;
    device.capability = cellnet::RatMask{
        static_cast<std::uint8_t>(device.capability.bits() | spec.force_bands.bits())};
    if (spec.cap_bands.any()) {
      device.capability = device.capability.intersect(spec.cap_bands);
      if (device.capability.none()) device.capability = spec.cap_bands;
    }
    if (rng_.bernoulli(spec.lte_sim_disabled_rate)) {
      device.sim_allowed_rats =
          cellnet::RatMask{static_cast<std::uint8_t>(0b011)};  // 2G+3G only
    }

    // Behavioural realizations.
    device.sessions_per_day = stats::clamped(
        stats::sample_lognormal(rng_, spec.profile.sessions_per_day_mu,
                                spec.profile.sessions_per_day_sigma),
        0.05, 2'000.0);
    device.bytes_per_day =
        rng_.bernoulli(spec.profile.p_no_data)
            ? 0.0
            : stats::clamped(stats::sample_lognormal(rng_, spec.profile.bytes_per_day_mu,
                                                     spec.profile.bytes_per_day_sigma),
                             16.0, 5.0e10);
    device.calls_per_day =
        rng_.bernoulli(spec.profile.p_no_voice)
            ? 0.0
            : stats::clamped(
                  stats::sample_exponential(
                      rng_, 1.0 / std::max(0.01, spec.profile.calls_per_day_mean)),
                  0.02, 200.0);

    // Presence window.
    if (rng_.bernoulli(spec.profile.p_full_period)) {
      device.arrival_day = 0;
      device.departure_day = spec.horizon_days;
    } else {
      device.arrival_day =
          static_cast<std::int32_t>(rng_.below(static_cast<std::uint64_t>(spec.horizon_days)));
      const double span = 1.0 + stats::sample_exponential(
                                    rng_, 1.0 / spec.profile.active_span_days_mean);
      device.departure_day = std::min<std::int32_t>(
          spec.horizon_days,
          device.arrival_day + static_cast<std::int32_t>(std::ceil(span)));
    }

    // APN assignment. A data-less device keeps an empty APN regardless of
    // policy (§4.3: 21% of devices expose no APN — voice-only usage).
    // The wire text is rendered and interned once, here; every xDR the
    // device emits copies the id.
    if (device.uses_data() && spec.apn_policy != ApnPolicy::kNone) {
      cellnet::Apn apn;
      switch (spec.apn_policy) {
        case ApnPolicy::kVerticalCompany: {
          if (!companies.empty()) {
            const auto& company = companies[rng_.weighted_index(company_weights)];
            apn = make_vertical_apn(company, home_plmn, rng_);
          } else {
            apn = make_platform_apn(home_plmn, rng_);
          }
          break;
        }
        case ApnPolicy::kConsumer:
          apn = make_consumer_apn(home_plmn, rng_);
          break;
        case ApnPolicy::kM2MPlatform:
          apn = make_platform_apn(home_plmn, rng_);
          break;
        case ApnPolicy::kNone:
          break;
      }
      device.apn = cellnet::ApnId::intern(apn.to_string());
    }

    // Placement: scattered around the deployment country's anchor.
    device.home_country = deployment;
    device.current_country = deployment;
    const double angle = rng_.uniform(0.0, 6.283185307179586);
    const double radius = spec.deployment_spread_m * std::sqrt(rng_.uniform());
    device.home_east_m = radius * std::cos(angle);
    device.home_north_m = radius * std::sin(angle);
    device.east_m = device.home_east_m;
    device.north_m = device.home_north_m;

    fleet.push_back(std::move(device));
  }
  return fleet;
}

}  // namespace wtr::devices
