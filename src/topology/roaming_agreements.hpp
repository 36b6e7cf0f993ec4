#pragma once

// Bilateral roaming agreements: the classic model (§2.1) in which two MNOs
// negotiate terms directly. An agreement is directional (home → visited):
// it lets the home operator's SIMs attach to the visited network, with a
// RAT scope and a data breakout configuration (Fig. 1).

#include <cstdint>
#include <optional>
#include <unordered_map>

#include "cellnet/rat.hpp"
#include "topology/operator_registry.hpp"

namespace wtr::topology {

/// The three roaming data-path configurations of Fig. 1.
enum class BreakoutType : std::uint8_t {
  kHomeRouted,     // HR: data egresses at the home PGW (the EU default)
  kLocalBreakout,  // LBO: egress at the visited PGW
  kIpxHubBreakout, // IHBO: egress inside the IPX network
};

[[nodiscard]] std::string_view breakout_name(BreakoutType type) noexcept;

struct AgreementTerms {
  cellnet::RatMask allowed_rats{};  // technologies covered by the agreement
  BreakoutType breakout = BreakoutType::kHomeRouted;
};

class RoamingAgreementGraph {
 public:
  /// Directional agreement home → visited. Overwrites existing terms.
  void add(OperatorId home, OperatorId visited, AgreementTerms terms);

  /// Symmetric convenience: adds both directions with the same terms.
  void add_bilateral(OperatorId a, OperatorId b, AgreementTerms terms);

  [[nodiscard]] std::optional<AgreementTerms> find(OperatorId home,
                                                   OperatorId visited) const;

  [[nodiscard]] std::size_t size() const noexcept { return terms_.size(); }

 private:
  static std::uint64_t key(OperatorId home, OperatorId visited) noexcept {
    return (static_cast<std::uint64_t>(home) << 32) | visited;
  }

  std::unordered_map<std::uint64_t, AgreementTerms> terms_;
};

}  // namespace wtr::topology
