#pragma once

// Control-plane procedures. The M2M platform dataset (§3.1) carries three
// message types observed near the HMNO (Authentication, Update Location,
// Cancel Location); the MNO-side SMIP analysis (§7.1) watches Attach,
// Routing Area Update and Detach on the MSC/MME. We model the superset.

#include <cstdint>
#include <optional>
#include <string_view>

namespace wtr::signaling {

enum class Procedure : std::uint8_t {
  kAttach = 0,
  kDetach,
  kAuthentication,
  kUpdateLocation,    // MAP UL / S6a Update Location toward the HSS
  kCancelLocation,    // HSS-initiated when the device moves networks
  kRoutingAreaUpdate, // 2G/3G mobility
  kTrackingAreaUpdate,// 4G mobility
};

inline constexpr int kProcedureCount = 7;

[[nodiscard]] std::string_view procedure_name(Procedure procedure) noexcept;

/// Inverse of procedure_name; nullopt for unknown names.
[[nodiscard]] std::optional<Procedure> procedure_from_name(std::string_view name) noexcept;

/// The subset visible to the M2M platform's probes (HMNO-side monitoring of
/// the roaming interconnect).
[[nodiscard]] bool visible_to_platform_probes(Procedure procedure) noexcept;

}  // namespace wtr::signaling
