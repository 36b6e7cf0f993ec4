#include "topology/operator_registry.hpp"

#include <cassert>
#include <stdexcept>

namespace wtr::topology {

OperatorId OperatorRegistry::add_mno(cellnet::Plmn plmn, std::string name,
                                     cellnet::CountryId country,
                                     cellnet::RatMask deployed_rats) {
  assert(plmn.valid());
  assert(!by_plmn_.contains(plmn));
  assert(country < mnos_by_country_.size());
  if (mnos_by_country_[country].size() == kMaxMnosPerCountry) {
    throw std::length_error("OperatorRegistry: " +
                            std::string(cellnet::country_at(country).iso) + " already has " +
                            std::to_string(kMaxMnosPerCountry) + " MNOs");
  }
  Operator op;
  op.id = static_cast<OperatorId>(operators_.size());
  op.plmn = plmn;
  op.name = std::move(name);
  op.country = country;
  op.kind = OperatorKind::kMno;
  op.deployed_rats = deployed_rats;
  by_plmn_.emplace(plmn, op.id);
  mnos_by_country_[country].push_back(op.id);
  operators_.push_back(std::move(op));
  return operators_.back().id;
}

OperatorId OperatorRegistry::add_mvno(cellnet::Plmn plmn, std::string name,
                                      OperatorId host) {
  assert(plmn.valid());
  assert(!by_plmn_.contains(plmn));
  const Operator& host_op = get(host);
  assert(host_op.kind == OperatorKind::kMno);
  Operator op;
  op.id = static_cast<OperatorId>(operators_.size());
  op.plmn = plmn;
  op.name = std::move(name);
  op.country = host_op.country;
  op.kind = OperatorKind::kMvno;
  op.host = host;
  op.deployed_rats = host_op.deployed_rats;
  by_plmn_.emplace(plmn, op.id);
  operators_.push_back(std::move(op));
  return operators_.back().id;
}

const Operator& OperatorRegistry::get(OperatorId id) const {
  assert(static_cast<std::size_t>(id) < operators_.size());
  return operators_[id];
}

std::optional<OperatorId> OperatorRegistry::by_plmn(cellnet::Plmn plmn) const {
  const auto it = by_plmn_.find(plmn);
  if (it == by_plmn_.end()) return std::nullopt;
  return it->second;
}

std::span<const OperatorId> OperatorRegistry::mnos_in_country(
    cellnet::CountryId country) const noexcept {
  assert(country < mnos_by_country_.size());
  const auto& mnos = mnos_by_country_[country];
  return {mnos.data(), mnos.size()};
}

OperatorId OperatorRegistry::radio_network_of(OperatorId id) const {
  const Operator& op = get(id);
  return op.kind == OperatorKind::kMvno ? op.host : op.id;
}

}  // namespace wtr::topology
