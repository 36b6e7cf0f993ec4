#pragma once

// Per-device mobility-management state machine (EMM in 4G terms; the 2G/3G
// GMM equivalent behaves identically at this abstraction). It enforces the
// legal procedure order the simulator follows — authenticate, then update
// location, then attached; periodic area updates while attached; cancel
// location on network change — and counts what it emitted.

#include <array>
#include <cstdint>
#include <optional>
#include <vector>

#include "signaling/procedure.hpp"
#include "signaling/result_code.hpp"
#include "topology/operator_registry.hpp"
#include "util/binio.hpp"

namespace wtr::signaling {

enum class EmmState : std::uint8_t {
  kDetached,
  kAuthenticating,   // attach in progress: authentication sent
  kUpdatingLocation, // attach in progress: update location sent
  kAttached,
};

class EmmStateMachine {
 public:
  /// Begin an attach toward a network. Legal from kDetached only; returns
  /// the first procedure to send (Authentication).
  Procedure begin_attach(topology::OperatorId visited);

  /// Feed the outcome of the last procedure sent during attach. Returns the
  /// next procedure to send, or nullopt when the attach concluded (check
  /// attached()). A failure at any step returns the machine to kDetached.
  std::optional<Procedure> on_attach_step_result(ResultCode result);

  /// Periodic mobility update while attached (RAU on 2G/3G, TAU on 4G).
  /// Legal from kAttached only.
  Procedure area_update(bool on_lte) noexcept;

  /// Explicit detach; legal from kAttached. Returns the Detach procedure.
  Procedure detach() noexcept;

  /// The device moved to another network: the old HSS registration is
  /// cancelled (CancelLocation is emitted by the network, attributed to the
  /// device in the trace) and the machine resets to kDetached.
  Procedure cancel_location() noexcept;

  [[nodiscard]] EmmState state() const noexcept { return state_; }
  [[nodiscard]] bool attached() const noexcept { return state_ == EmmState::kAttached; }
  [[nodiscard]] std::optional<topology::OperatorId> serving_network() const noexcept {
    return state_ == EmmState::kDetached ? std::nullopt : serving_;
  }

  [[nodiscard]] std::uint64_t procedures_emitted(Procedure procedure) const noexcept {
    return counts_[static_cast<std::size_t>(procedure)];
  }
  [[nodiscard]] std::uint64_t total_procedures() const noexcept;

  /// Checkpoint support: serialize / restore the full machine state.
  void save_state(util::BinWriter& out) const;
  void restore_state(util::BinReader& in);

 private:
  void count(Procedure procedure) noexcept {
    ++counts_[static_cast<std::size_t>(procedure)];
  }

  EmmState state_ = EmmState::kDetached;
  std::optional<topology::OperatorId> serving_;
  std::array<std::uint64_t, kProcedureCount> counts_{};
};

}  // namespace wtr::signaling
