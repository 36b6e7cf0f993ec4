#include "signaling/procedure.hpp"

namespace wtr::signaling {

std::string_view procedure_name(Procedure procedure) noexcept {
  switch (procedure) {
    case Procedure::kAttach: return "Attach";
    case Procedure::kDetach: return "Detach";
    case Procedure::kAuthentication: return "Authentication";
    case Procedure::kUpdateLocation: return "UpdateLocation";
    case Procedure::kCancelLocation: return "CancelLocation";
    case Procedure::kRoutingAreaUpdate: return "RoutingAreaUpdate";
    case Procedure::kTrackingAreaUpdate: return "TrackingAreaUpdate";
  }
  return "?";
}

std::optional<Procedure> procedure_from_name(std::string_view name) noexcept {
  for (int i = 0; i < kProcedureCount; ++i) {
    const auto procedure = static_cast<Procedure>(i);
    if (procedure_name(procedure) == name) return procedure;
  }
  return std::nullopt;
}

bool visible_to_platform_probes(Procedure procedure) noexcept {
  switch (procedure) {
    case Procedure::kAuthentication:
    case Procedure::kUpdateLocation:
    case Procedure::kCancelLocation: return true;
    default: return false;
  }
}

}  // namespace wtr::signaling
