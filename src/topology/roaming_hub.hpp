#pragma once

// Roaming hubs / IPX providers (§2.1–2.2): an operator connects once to a
// hub and gains reach to every other member; hubs peer with each other to
// extend reach further (the paper's carrier interconnects MNOs in 19
// countries directly and reaches the rest of the globe through other
// carriers). The M2M platform in §3 is built on exactly this function.

#include <cstdint>
#include <optional>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "topology/operator_registry.hpp"
#include "topology/roaming_agreements.hpp"

namespace wtr::topology {

using HubId = std::uint32_t;
inline constexpr HubId kInvalidHub = ~HubId{0};

struct RoamingHub {
  HubId id = kInvalidHub;
  std::string name;
  std::vector<OperatorId> members;  // insertion order preserved
};

/// How an effective roaming relation between two operators is realized.
enum class RoamingPath : std::uint8_t {
  kNone,            // no commercial path: attach attempts are rejected
  kDirect,          // bilateral agreement
  kViaHub,          // both members of the same hub
  kViaHubPeering,   // members of two peered hubs
};

[[nodiscard]] std::string_view roaming_path_name(RoamingPath path) noexcept;

struct EffectiveRoaming {
  RoamingPath path = RoamingPath::kNone;
  AgreementTerms terms{};  // effective terms on that path
  /// Hub carrying the relation: the shared hub for kViaHub, the home-side
  /// hub for kViaHubPeering, kInvalidHub for direct/none. Fault injection
  /// scopes degraded-path episodes by this id.
  HubId via_hub = kInvalidHub;
};

class HubRegistry {
 public:
  HubId add_hub(std::string name, AgreementTerms default_terms);

  void add_member(HubId hub, OperatorId op);

  /// Symmetric peering between hubs; members of peered hubs can reach each
  /// other with the more restrictive of the two hubs' default terms.
  void peer(HubId a, HubId b);

  [[nodiscard]] const RoamingHub& get(HubId id) const;
  [[nodiscard]] std::size_t size() const noexcept { return hubs_.size(); }
  /// Hubs an operator belongs to, in join order (empty when none).
  [[nodiscard]] const std::vector<HubId>& hubs_of(OperatorId op) const;

  /// Resolve the effective roaming relation home → visited, considering the
  /// direct bilateral graph first (it can carry bespoke terms), then shared
  /// hub membership, then one hop of hub peering.
  [[nodiscard]] EffectiveRoaming resolve(const RoamingAgreementGraph& bilateral,
                                         OperatorId home, OperatorId visited) const;

 private:
  [[nodiscard]] AgreementTerms terms_of(HubId hub) const;

  std::vector<RoamingHub> hubs_;
  std::vector<AgreementTerms> default_terms_;
  std::unordered_map<OperatorId, std::vector<HubId>> memberships_;
  std::unordered_map<HubId, std::unordered_set<HubId>> peers_;
};

/// Intersection of two terms: RAT sets intersect; breakout degrades to the
/// hub-mediated IHBO when the two disagree.
[[nodiscard]] AgreementTerms merge_terms(const AgreementTerms& a,
                                         const AgreementTerms& b) noexcept;

}  // namespace wtr::topology
