#include "cellnet/country.hpp"

#include <algorithm>
#include <array>
#include <cassert>
#include <stdexcept>

namespace wtr::cellnet {

std::string_view region_name(Region region) noexcept {
  switch (region) {
    case Region::kEurope: return "Europe(EU)";
    case Region::kEuropeNonEu: return "Europe(non-EU)";
    case Region::kLatinAmerica: return "LatinAmerica";
    case Region::kNorthAmerica: return "NorthAmerica";
    case Region::kAsiaPacific: return "AsiaPacific";
    case Region::kMiddleEastAfrica: return "MEA";
  }
  return "?";
}

namespace {
// Real ITU MCC assignments. Sorted by ISO code (checked by a test).
constexpr std::array<CountryInfo, 72> kCountries{{
    {"AE", "United Arab Emirates", 424, Region::kMiddleEastAfrica, 24.0, 54.0},
    {"AR", "Argentina", 722, Region::kLatinAmerica, -34.6, -58.4},
    {"AT", "Austria", 232, Region::kEurope, 48.2, 16.4},
    {"AU", "Australia", 505, Region::kAsiaPacific, -33.9, 151.2},
    {"BE", "Belgium", 206, Region::kEurope, 50.8, 4.4},
    {"BG", "Bulgaria", 284, Region::kEurope, 42.7, 23.3},
    {"BR", "Brazil", 724, Region::kLatinAmerica, -23.5, -46.6},
    {"CA", "Canada", 302, Region::kNorthAmerica, 43.7, -79.4},
    {"CH", "Switzerland", 228, Region::kEuropeNonEu, 47.4, 8.5},
    {"CL", "Chile", 730, Region::kLatinAmerica, -33.4, -70.7},
    {"CN", "China", 460, Region::kAsiaPacific, 39.9, 116.4},
    {"CO", "Colombia", 732, Region::kLatinAmerica, 4.7, -74.1},
    {"CR", "Costa Rica", 712, Region::kLatinAmerica, 9.9, -84.1},
    {"CZ", "Czechia", 230, Region::kEurope, 50.1, 14.4},
    {"DE", "Germany", 262, Region::kEurope, 52.5, 13.4},
    {"DK", "Denmark", 238, Region::kEurope, 55.7, 12.6},
    {"EC", "Ecuador", 740, Region::kLatinAmerica, -0.2, -78.5},
    {"EE", "Estonia", 248, Region::kEurope, 59.4, 24.8},
    {"EG", "Egypt", 602, Region::kMiddleEastAfrica, 30.0, 31.2},
    {"ES", "Spain", 214, Region::kEurope, 40.4, -3.7},
    {"FI", "Finland", 244, Region::kEurope, 60.2, 24.9},
    {"FR", "France", 208, Region::kEurope, 48.9, 2.4},
    {"GB", "United Kingdom", 234, Region::kEurope, 51.5, -0.1},
    {"GR", "Greece", 202, Region::kEurope, 38.0, 23.7},
    {"GT", "Guatemala", 704, Region::kLatinAmerica, 14.6, -90.5},
    {"HK", "Hong Kong", 454, Region::kAsiaPacific, 22.3, 114.2},
    {"HR", "Croatia", 219, Region::kEurope, 45.8, 16.0},
    {"HU", "Hungary", 216, Region::kEurope, 47.5, 19.0},
    {"ID", "Indonesia", 510, Region::kAsiaPacific, -6.2, 106.8},
    {"IE", "Ireland", 272, Region::kEurope, 53.3, -6.3},
    {"IL", "Israel", 425, Region::kMiddleEastAfrica, 32.1, 34.8},
    {"IN", "India", 404, Region::kAsiaPacific, 28.6, 77.2},
    {"IT", "Italy", 222, Region::kEurope, 41.9, 12.5},
    {"JP", "Japan", 440, Region::kAsiaPacific, 35.7, 139.7},
    {"KE", "Kenya", 639, Region::kMiddleEastAfrica, -1.3, 36.8},
    {"KR", "South Korea", 450, Region::kAsiaPacific, 37.6, 127.0},
    {"LT", "Lithuania", 246, Region::kEurope, 54.7, 25.3},
    {"LU", "Luxembourg", 270, Region::kEurope, 49.6, 6.1},
    {"LV", "Latvia", 247, Region::kEurope, 56.9, 24.1},
    {"MA", "Morocco", 604, Region::kMiddleEastAfrica, 34.0, -6.8},
    {"MX", "Mexico", 334, Region::kLatinAmerica, 19.4, -99.1},
    {"MY", "Malaysia", 502, Region::kAsiaPacific, 3.1, 101.7},
    {"NG", "Nigeria", 621, Region::kMiddleEastAfrica, 6.5, 3.4},
    {"NL", "Netherlands", 204, Region::kEurope, 52.4, 4.9},
    {"NO", "Norway", 242, Region::kEurope, 59.9, 10.8},
    {"NZ", "New Zealand", 530, Region::kAsiaPacific, -36.8, 174.8},
    {"PA", "Panama", 714, Region::kLatinAmerica, 9.0, -79.5},
    {"PE", "Peru", 716, Region::kLatinAmerica, -12.0, -77.0},
    {"PH", "Philippines", 515, Region::kAsiaPacific, 14.6, 121.0},
    {"PL", "Poland", 260, Region::kEurope, 52.2, 21.0},
    {"PT", "Portugal", 268, Region::kEurope, 38.7, -9.1},
    {"PY", "Paraguay", 744, Region::kLatinAmerica, -25.3, -57.6},
    {"QA", "Qatar", 427, Region::kMiddleEastAfrica, 25.3, 51.5},
    {"RO", "Romania", 226, Region::kEurope, 44.4, 26.1},
    {"RS", "Serbia", 220, Region::kEuropeNonEu, 44.8, 20.5},
    {"RU", "Russia", 250, Region::kEuropeNonEu, 55.8, 37.6},
    {"SA", "Saudi Arabia", 420, Region::kMiddleEastAfrica, 24.7, 46.7},
    {"SE", "Sweden", 240, Region::kEurope, 59.3, 18.1},
    {"SG", "Singapore", 525, Region::kAsiaPacific, 1.3, 103.9},
    {"SI", "Slovenia", 293, Region::kEurope, 46.1, 14.5},
    {"SK", "Slovakia", 231, Region::kEurope, 48.1, 17.1},
    {"TH", "Thailand", 520, Region::kAsiaPacific, 13.8, 100.5},
    {"TR", "Turkey", 286, Region::kEuropeNonEu, 39.9, 32.9},
    {"TW", "Taiwan", 466, Region::kAsiaPacific, 25.0, 121.6},
    {"UA", "Ukraine", 255, Region::kEuropeNonEu, 50.5, 30.5},
    {"US", "United States", 310, Region::kNorthAmerica, 40.7, -74.0},
    {"UY", "Uruguay", 748, Region::kLatinAmerica, -34.9, -56.2},
    {"VE", "Venezuela", 734, Region::kLatinAmerica, 10.5, -66.9},
    {"VN", "Vietnam", 452, Region::kAsiaPacific, 21.0, 105.8},
    {"ZA", "South Africa", 655, Region::kMiddleEastAfrica, -26.2, 28.0},
    {"ZM", "Zambia", 645, Region::kMiddleEastAfrica, -15.4, 28.3},
    {"ZW", "Zimbabwe", 648, Region::kMiddleEastAfrica, -17.8, 31.0},
}};
}  // namespace

std::span<const CountryInfo> all_countries() noexcept { return kCountries; }

std::optional<CountryId> country_id(std::string_view iso) noexcept {
  const auto it = std::lower_bound(
      kCountries.begin(), kCountries.end(), iso,
      [](const CountryInfo& info, std::string_view key) { return info.iso < key; });
  if (it == kCountries.end() || it->iso != iso) return std::nullopt;
  return static_cast<CountryId>(it - kCountries.begin());
}

CountryId require_country_id(std::string_view iso) {
  const auto id = country_id(iso);
  if (!id) {
    throw std::invalid_argument("unknown ISO country code \"" + std::string(iso) + "\"");
  }
  return *id;
}

const CountryInfo& country_at(CountryId id) noexcept {
  assert(id < kCountries.size());
  return kCountries[id];
}

std::optional<CountryInfo> country_by_iso(std::string_view iso) noexcept {
  const auto id = country_id(iso);
  if (!id) return std::nullopt;
  return country_at(*id);
}

std::optional<CountryInfo> country_by_mcc(std::uint16_t mcc) noexcept {
  for (const auto& info : kCountries) {
    if (info.mcc == mcc) return info;
  }
  return std::nullopt;
}

std::string_view iso_of_mcc(std::uint16_t mcc) noexcept {
  const auto info = country_by_mcc(mcc);
  return info ? info->iso : std::string_view{"??"};
}

}  // namespace wtr::cellnet
