#pragma once

// Registry of mobile operators: MNOs with their own radio network and PLMN,
// and MVNOs that ride a host MNO's network under their own PLMN. The MNO
// dataset's roaming labels (§4.2) distinguish home / virtual / national /
// international SIMs — all of which are relations between entries here.

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "cellnet/country.hpp"
#include "cellnet/plmn.hpp"
#include "cellnet/rat.hpp"
#include "util/inline_vector.hpp"

namespace wtr::topology {

using OperatorId = std::uint32_t;
inline constexpr OperatorId kInvalidOperator = ~OperatorId{0};

/// Most MNOs one country may have. Network selection keeps a country's
/// networks in fixed-capacity lists of this size, so add_mno enforces it.
inline constexpr std::size_t kMaxMnosPerCountry = 4;

enum class OperatorKind : std::uint8_t { kMno, kMvno };

struct Operator {
  OperatorId id = kInvalidOperator;
  cellnet::Plmn plmn{};
  std::string name;
  cellnet::CountryId country = cellnet::kInvalidCountry;  // home country
  OperatorKind kind = OperatorKind::kMno;
  OperatorId host = kInvalidOperator;  // hosting MNO, for MVNOs
  cellnet::RatMask deployed_rats{};    // technologies on the radio network
};

class OperatorRegistry {
 public:
  /// Register a facilities-based MNO. PLMN must be unique. Throws
  /// std::length_error when the country already has kMaxMnosPerCountry.
  OperatorId add_mno(cellnet::Plmn plmn, std::string name, cellnet::CountryId country,
                     cellnet::RatMask deployed_rats);

  /// Register an MVNO hosted on an existing MNO (same country; inherits the
  /// host's radio network).
  OperatorId add_mvno(cellnet::Plmn plmn, std::string name, OperatorId host);

  [[nodiscard]] const Operator& get(OperatorId id) const;
  [[nodiscard]] std::optional<OperatorId> by_plmn(cellnet::Plmn plmn) const;
  [[nodiscard]] std::size_t size() const noexcept { return operators_.size(); }
  [[nodiscard]] const std::vector<Operator>& all() const noexcept { return operators_; }

  /// MNOs (not MVNOs) whose home country matches, in id order (at most
  /// kMaxMnosPerCountry).
  [[nodiscard]] std::span<const OperatorId> mnos_in_country(
      cellnet::CountryId country) const noexcept;

  /// The MNO whose radio network an operator's customers use at home:
  /// itself for an MNO, the host for an MVNO.
  [[nodiscard]] OperatorId radio_network_of(OperatorId id) const;

 private:
  std::vector<Operator> operators_;
  std::unordered_map<cellnet::Plmn, OperatorId> by_plmn_;
  // Per-country MNO index, appended to as MNOs are added (so id order).
  using CountryMnos = util::InlineVector<OperatorId, kMaxMnosPerCountry>;
  std::vector<CountryMnos> mnos_by_country_ =
      std::vector<CountryMnos>(cellnet::all_countries().size());
};

}  // namespace wtr::topology
