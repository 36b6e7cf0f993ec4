#pragma once

// Per-engine struct-of-arrays agent storage with lazy hydration.
//
// At fleet scale (the paper's MNO dataset covers 39.6M devices) a
// heap-allocated DeviceAgent per device is the dominant memory cost, and
// most of it is dead weight: real IoT fleets are dominated by long-dormant
// devices, and a staggered-arrival fleet spends most of the horizon with a
// large fraction of agents that have never woken. The arena splits agent
// state into three tiers:
//
//  * cold catalog  — the devices::Device rows, contiguous (devices_).
//                    Needed for fingerprints, ground truth and hydration
//                    but never touched by the event loop until first wake.
//  * hot dormant   — what it takes to wake an agent for the first time:
//                    the post-first-draw RNG state (32 B), the first wake
//                    time, and an interned options id. Flat parallel
//                    vectors; this is all a parked agent costs.
//  * working state — full DeviceAgent slots, placement-constructed on
//                    first wake into one untouched-until-hydrated slab
//                    (work_). Dormant slots are never written, so the OS
//                    never backs them with physical pages; resident cost
//                    scales with the *awake* fleet, not the registered one.
//
// AgentOptions (~corridor + checkin + FOTA config, shared per fleet) are
// interned once per add_fleet call instead of copied per agent.
//
// Determinism: hydration is a pure function of the registration-time data
// (device row, options, stored RNG state, first wake), and registration
// performs exactly the RNG operations the eager construction path did —
// fork, empty-window check, one uniform draw — so a lazily hydrated agent
// is bit-identical to an eagerly constructed one at its first wake. Slots
// are index-addressed, so shard threads hydrate disjoint slots without
// synchronization (shards partition agents by index).

#include <array>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <memory>
#include <optional>
#include <vector>

#include "devices/device.hpp"
#include "sim/device_agent.hpp"
#include "stats/rng.hpp"
#include "stats/sim_time.hpp"

namespace wtr::sim {

class AgentArena {
 public:
  AgentArena() = default;
  ~AgentArena();
  AgentArena(const AgentArena&) = delete;
  AgentArena& operator=(const AgentArena&) = delete;

  /// Intern one fleet's shared AgentOptions; returns the id to register
  /// devices under. Stable addresses (deque) — hydrated agents point in.
  std::uint32_t intern_options(AgentOptions options);

  /// Pre-size the catalog/dormant vectors for `count` more registrations.
  /// Keeps geometric growth as a floor so repeated add_fleet calls don't
  /// degenerate into one exact realloc (and full copy) per fleet.
  void reserve_additional(std::size_t count);

  /// Register one device: performs the exact registration-time RNG ops of
  /// the eager path (empty-window check before any draw, then one uniform
  /// draw for the first wake). Returns the first wake time, or nullopt for
  /// an empty active window (the device is dropped, nothing stored).
  /// Invalid after freeze().
  std::optional<stats::SimTime> register_device(devices::Device device,
                                                std::uint32_t options_id,
                                                stats::Rng rng);

  [[nodiscard]] std::size_t size() const noexcept { return devices_.size(); }
  [[nodiscard]] const devices::Device& device(std::size_t index) const {
    return devices_[index];
  }
  [[nodiscard]] stats::SimTime first_wake(std::size_t index) const {
    return first_wakes_[index];
  }

  /// Allocate the working-state slab. Must be called after the last
  /// registration and before the first agent() access; idempotent.
  void freeze();
  [[nodiscard]] bool frozen() const noexcept { return frozen_; }

  /// Full working state for an agent, hydrating it on first access.
  /// Requires freeze(). The const overload exists for inspection paths
  /// (recovery tests, fleet-state dumps); hydration is deterministic
  /// materialization of registration-time data, so it is logically const.
  [[nodiscard]] DeviceAgent& agent(std::size_t index);
  [[nodiscard]] const DeviceAgent& agent(std::size_t index) const {
    return const_cast<AgentArena*>(this)->agent(index);
  }

  [[nodiscard]] bool hydrated(std::size_t index) const noexcept {
    return hydrated_[index] != 0;
  }
  /// Agents materialized so far (scan; telemetry/bench only).
  [[nodiscard]] std::size_t hydrated_count() const noexcept;
  /// Approximate bytes of physically resident agent state: catalog + hot
  /// dormant vectors + options pool + hydrated working slots. Dormant
  /// working slots are untouched slab pages and excluded.
  [[nodiscard]] std::size_t resident_bytes() const noexcept;

  /// Snapshot the arena (v3 layout): a hydration flag per agent, followed
  /// by DeviceAgent state for hydrated agents only — dormant state is fully
  /// reconstructible at registration and costs nothing in the snapshot.
  void save_state(util::BinWriter& out) const;
  /// Restore a v3 arena section. Requires freeze() and a fresh (nothing
  /// hydrated) arena, i.e. called before the engine ever ran.
  void restore_state(util::BinReader& in);

 private:
  [[nodiscard]] DeviceAgent* slot(std::size_t index) noexcept {
    return reinterpret_cast<DeviceAgent*>(work_.get() + index * sizeof(DeviceAgent));
  }
  DeviceAgent& hydrate(std::size_t index);

  std::deque<AgentOptions> options_;
  std::vector<devices::Device> devices_;
  /// RNG state after the first-wake draw; what on_wake starts from.
  std::vector<std::array<std::uint64_t, 4>> dormant_rng_;
  std::vector<stats::SimTime> first_wakes_;
  std::vector<std::uint32_t> options_ids_;
  std::vector<std::uint8_t> hydrated_;
  std::unique_ptr<std::byte[]> work_;
  bool frozen_ = false;
};

}  // namespace wtr::sim
