#include "signaling/emm_state.hpp"

#include <cassert>
#include <numeric>

namespace wtr::signaling {

Procedure EmmStateMachine::begin_attach(topology::OperatorId visited) {
  assert(state_ == EmmState::kDetached);
  state_ = EmmState::kAuthenticating;
  serving_ = visited;
  count(Procedure::kAttach);
  count(Procedure::kAuthentication);
  return Procedure::kAuthentication;
}

std::optional<Procedure> EmmStateMachine::on_attach_step_result(ResultCode result) {
  assert(state_ == EmmState::kAuthenticating || state_ == EmmState::kUpdatingLocation);
  if (is_failure(result)) {
    state_ = EmmState::kDetached;
    serving_.reset();
    return std::nullopt;
  }
  if (state_ == EmmState::kAuthenticating) {
    state_ = EmmState::kUpdatingLocation;
    count(Procedure::kUpdateLocation);
    return Procedure::kUpdateLocation;
  }
  state_ = EmmState::kAttached;
  return std::nullopt;
}

Procedure EmmStateMachine::area_update(bool on_lte) noexcept {
  assert(state_ == EmmState::kAttached);
  const Procedure procedure =
      on_lte ? Procedure::kTrackingAreaUpdate : Procedure::kRoutingAreaUpdate;
  count(procedure);
  return procedure;
}

Procedure EmmStateMachine::detach() noexcept {
  assert(state_ == EmmState::kAttached);
  state_ = EmmState::kDetached;
  serving_.reset();
  count(Procedure::kDetach);
  return Procedure::kDetach;
}

Procedure EmmStateMachine::cancel_location() noexcept {
  state_ = EmmState::kDetached;
  serving_.reset();
  count(Procedure::kCancelLocation);
  return Procedure::kCancelLocation;
}

std::uint64_t EmmStateMachine::total_procedures() const noexcept {
  return std::accumulate(counts_.begin(), counts_.end(), std::uint64_t{0});
}

void EmmStateMachine::save_state(util::BinWriter& out) const {
  out.u8(static_cast<std::uint8_t>(state_));
  out.b(serving_.has_value());
  out.u32(serving_.value_or(topology::kInvalidOperator));
  for (const auto count : counts_) out.u64(count);
}

void EmmStateMachine::restore_state(util::BinReader& in) {
  state_ = static_cast<EmmState>(in.u8());
  const bool has_serving = in.b();
  const auto serving = in.u32();
  serving_ = has_serving ? std::optional<topology::OperatorId>{serving} : std::nullopt;
  for (auto& count : counts_) count = in.u64();
}

}  // namespace wtr::signaling
