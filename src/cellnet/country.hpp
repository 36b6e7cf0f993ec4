#pragma once

// Country registry: ISO-3166 alpha-2 code, human name, ITU Mobile Country
// Code and a coarse region tag (used by roaming-regulation logic: the EU
// "roam like at home" regulation the paper cites makes intra-EU roaming the
// default, while several Latin American markets restrict it).
//
// The table carries the real MCC assignments for the ~70 countries the
// paper's datasets touch; it is a static catalog, not an external data
// dependency.

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <string_view>

namespace wtr::cellnet {

enum class Region : std::uint8_t {
  kEurope,        // EU/EEA "roam like at home" area
  kEuropeNonEu,   // European, outside the RLAH regulation
  kLatinAmerica,
  kNorthAmerica,
  kAsiaPacific,
  kMiddleEastAfrica,
};

[[nodiscard]] std::string_view region_name(Region region) noexcept;

struct CountryInfo {
  std::string_view iso;   // "ES"
  std::string_view name;  // "Spain"
  std::uint16_t mcc;      // 214
  Region region;
  double lat;             // rough centroid, degrees
  double lon;
};

/// Full static table (sorted by ISO code).
[[nodiscard]] std::span<const CountryInfo> all_countries() noexcept;

/// A country inside the simulator: its index in all_countries(). Devices,
/// corridors and operators carry ids; ISO text appears only at the edges
/// (config, snapshots, path-model egress, reports).
using CountryId = std::uint16_t;
inline constexpr CountryId kInvalidCountry = ~CountryId{0};

/// Id of an ISO alpha-2 code ("ES"); nullopt when unknown. The one ISO
/// lookup: every other by-code query goes through it.
[[nodiscard]] std::optional<CountryId> country_id(std::string_view iso) noexcept;

/// country_id() for build-time callers: throws std::invalid_argument naming
/// the code when it is unknown, instead of placing devices nowhere.
[[nodiscard]] CountryId require_country_id(std::string_view iso);

/// Table row of a valid id.
[[nodiscard]] const CountryInfo& country_at(CountryId id) noexcept;

/// Lookup by ISO alpha-2 code ("ES"); nullopt when unknown.
[[nodiscard]] std::optional<CountryInfo> country_by_iso(std::string_view iso) noexcept;

/// Lookup by MCC; nullopt when unknown.
[[nodiscard]] std::optional<CountryInfo> country_by_mcc(std::uint16_t mcc) noexcept;

/// ISO code of the country owning this MCC, or "??" when unknown.
[[nodiscard]] std::string_view iso_of_mcc(std::uint16_t mcc) noexcept;

}  // namespace wtr::cellnet
