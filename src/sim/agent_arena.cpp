#include "sim/agent_arena.hpp"

#include <cassert>
#include <limits>
#include <new>
#include <stdexcept>

namespace wtr::sim {

// Placement slots are addressed by index with sizeof(DeviceAgent) stride;
// operator new's default alignment must satisfy the type.
static_assert(alignof(DeviceAgent) <= __STDCPP_DEFAULT_NEW_ALIGNMENT__);

AgentArena::~AgentArena() {
  if (work_ == nullptr) return;
  for (std::size_t i = 0; i < hydrated_.size(); ++i) {
    if (hydrated_[i] != 0) slot(i)->~DeviceAgent();
  }
}

std::uint32_t AgentArena::intern_options(AgentOptions options) {
  if (options_.size() >= std::numeric_limits<std::uint32_t>::max()) {
    throw std::length_error("sim::AgentArena: options pool overflow");
  }
  options_.push_back(std::move(options));
  return static_cast<std::uint32_t>(options_.size() - 1);
}

void AgentArena::reserve_additional(std::size_t count) {
  const std::size_t want = devices_.size() + count;
  if (want <= devices_.capacity()) return;
  // Geometric floor: libstdc++ reserve() allocates exactly what is asked,
  // so back-to-back exact reservations across add_fleet calls would realloc
  // (and copy the whole catalog) once per fleet.
  const std::size_t target = std::max(want, devices_.capacity() * 2);
  devices_.reserve(target);
  dormant_rng_.reserve(target);
  first_wakes_.reserve(target);
  options_ids_.reserve(target);
  hydrated_.reserve(target);
}

std::optional<stats::SimTime> AgentArena::register_device(devices::Device device,
                                                          std::uint32_t options_id,
                                                          stats::Rng rng) {
  assert(!frozen_);
  assert(options_id < options_.size());
  // Exactly the eager path's RNG discipline: the empty-window check comes
  // before any draw (dropped devices consume nothing), then one uniform
  // draw places the first wake within the arrival day.
  if (device.departure_day <= device.arrival_day) return std::nullopt;
  const stats::SimTime first = DeviceAgent::plan_first_wake(device, rng);
  devices_.push_back(std::move(device));
  dormant_rng_.push_back(rng.state());
  first_wakes_.push_back(first);
  options_ids_.push_back(options_id);
  hydrated_.push_back(0);
  return first;
}

void AgentArena::freeze() {
  if (frozen_) return;
  if (!devices_.empty()) {
    // Default-initialized (not value-initialized): the slab must stay
    // untouched so dormant slots never get physical pages.
    work_.reset(new std::byte[devices_.size() * sizeof(DeviceAgent)]);
  }
  frozen_ = true;
}

DeviceAgent& AgentArena::hydrate(std::size_t index) {
  assert(frozen_);
  stats::Rng rng{1};
  rng.set_state(dormant_rng_[index]);
  DeviceAgent* agent = new (slot(index)) DeviceAgent(
      &devices_[index], &options_[options_ids_[index]], rng, first_wakes_[index]);
  hydrated_[index] = 1;
  return *agent;
}

DeviceAgent& AgentArena::agent(std::size_t index) {
  if (hydrated_[index] != 0) return *slot(index);
  return hydrate(index);
}

std::size_t AgentArena::hydrated_count() const noexcept {
  std::size_t count = 0;
  for (const auto flag : hydrated_) count += flag;
  return count;
}

std::size_t AgentArena::resident_bytes() const noexcept {
  std::size_t bytes = devices_.capacity() * sizeof(devices::Device) +
                      dormant_rng_.capacity() * sizeof(dormant_rng_[0]) +
                      first_wakes_.capacity() * sizeof(stats::SimTime) +
                      options_ids_.capacity() * sizeof(std::uint32_t) +
                      hydrated_.capacity() * sizeof(std::uint8_t) +
                      options_.size() * sizeof(AgentOptions);
  bytes += hydrated_count() * sizeof(DeviceAgent);
  return bytes;
}

void AgentArena::save_state(util::BinWriter& out) const {
  for (std::size_t i = 0; i < devices_.size(); ++i) {
    const bool live = hydrated_[i] != 0;
    out.b(live);
    if (live) const_cast<AgentArena*>(this)->slot(i)->save_state(out);
  }
}

void AgentArena::restore_state(util::BinReader& in) {
  assert(frozen_);
  for (std::size_t i = 0; i < devices_.size(); ++i) {
    if (in.b()) {
      agent(i).restore_state(in);
    } else {
      // A dormant agent needs nothing: registration already rebuilt its
      // hot state, and the snapshot was taken before its first wake.
      assert(hydrated_[i] == 0);
    }
  }
}

}  // namespace wtr::sim
