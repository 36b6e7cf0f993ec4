#pragma once

// Shared scenario machinery: a Scenario owns the world, the TAC pools, the
// engine and the ground-truth registry, and exposes one run() that streams
// records into caller-provided sinks. Concrete scenarios (M2M platform,
// visited MNO, SMIP) only differ in the fleets they compose.

#include <memory>
#include <unordered_map>
#include <vector>

#include "cellnet/tac_catalog.hpp"
#include "devices/fleet_builder.hpp"
#include "faults/fault_schedule.hpp"
#include "obs/observability.hpp"
#include "signaling/attach_backoff.hpp"
#include "sim/engine.hpp"
#include "topology/world.hpp"

namespace wtr::tracegen {

/// How to run a scenario, as opposed to what it simulates: the options every
/// scenario config inherits. The ScenarioBase constructor maps them onto
/// sim::Engine::Config; none of them changes simulation output except
/// `faults` and `backoff`.
struct RunOptions {
  /// Engine shard count (sim::Engine::Config::threads). Any value yields
  /// byte-identical output to threads=1; >1 only changes wall time.
  unsigned threads = 1;
  /// Optional fault-injection schedule (borrowed; must outlive the
  /// scenario). Null or empty keeps the run bit-identical to the no-fault
  /// build. Episode times are sim seconds (stats::day_start helps).
  const faults::FaultSchedule* faults = nullptr;
  /// Retry model for every fleet: enable for the mechanistic 3GPP
  /// T3411/T3402 backoff; leave disabled for the calibrated retry-rate
  /// boost the headline figures were fit with.
  signaling::AttachBackoffConfig backoff{};
  /// Observability hooks (borrowed; all-null disables the layer and keeps
  /// the run byte-identical).
  obs::Observability obs{};
  /// Checkpoint/restore plumbing (all-default = off).
  sim::CheckpointOptions ckpt{};
  /// Flight recorder and heartbeat (all-default = off).
  sim::TelemetryOptions telemetry{};
};

struct GroundTruthEntry {
  devices::DeviceClass device_class = devices::DeviceClass::kM2M;
  devices::Vertical vertical = devices::Vertical::kNone;
  topology::OperatorId home_operator = topology::kInvalidOperator;
};

using GroundTruthMap = std::unordered_map<signaling::DeviceHash, GroundTruthEntry>;

/// Ground truth projected to just the device class (the classifier
/// validation input).
[[nodiscard]] std::unordered_map<signaling::DeviceHash, devices::DeviceClass>
class_truth(const GroundTruthMap& truth);

class ScenarioBase {
 public:
  /// `engine_config` carries what the concrete scenario decides (seed,
  /// horizon, outcome policy, congestion model); `run` fills in the rest.
  /// `run.obs` (all-null by default) wires the observability layer through
  /// the whole scenario: world build and fleet construction run under phase
  /// timers ("scenario/world", "scenario/fleets"), the engine gets the
  /// metrics registry and probe, and run() times "engine/run". Disabled
  /// observability leaves every output byte-identical.
  ScenarioBase(topology::WorldConfig world_config, cellnet::TacPools::Config tac_config,
               sim::Engine::Config engine_config, const RunOptions& run,
               std::uint64_t fleet_seed);
  virtual ~ScenarioBase() = default;

  ScenarioBase(const ScenarioBase&) = delete;
  ScenarioBase& operator=(const ScenarioBase&) = delete;

  [[nodiscard]] const topology::World& world() const noexcept { return *world_; }
  [[nodiscard]] const cellnet::TacPools& tac_pools() const noexcept { return tac_pools_; }
  [[nodiscard]] const cellnet::TacCatalog& tac_catalog() const noexcept {
    return tac_pools_.catalog();
  }
  [[nodiscard]] const GroundTruthMap& ground_truth() const noexcept { return truth_; }
  [[nodiscard]] sim::Engine& engine() noexcept { return *engine_; }
  [[nodiscard]] std::size_t device_count() const noexcept { return devices_added_; }

  [[nodiscard]] const obs::Observability& observability() const noexcept { return obs_; }

  /// Run the simulation once, streaming into the sinks.
  void run(std::vector<sim::RecordSink*> sinks);

  /// Resume the engine from a snapshot written by a previous process (see
  /// sim::Engine::resume_from). The scenario must be constructed with the
  /// identical config first, and any engine().register_checkpointable()
  /// calls must already have happened in the same order as at save time.
  void resume_from(const std::string& path) { engine_->resume_from(path); }

 protected:
  /// Build a fleet, register its ground truth and add it to the engine.
  /// Returns the device hashes of the fleet (membership sets for analyses
  /// that split fleets, e.g. SMIP native vs roaming).
  std::vector<signaling::DeviceHash> add_fleet(const devices::FleetSpec& spec,
                                               sim::AgentOptions options);

  obs::Observability obs_;
  std::unique_ptr<topology::World> world_;
  cellnet::TacPools tac_pools_;
  std::unique_ptr<devices::FleetBuilder> fleet_builder_;
  std::unique_ptr<sim::Engine> engine_;
  GroundTruthMap truth_;
  std::size_t devices_added_ = 0;
};

}  // namespace wtr::tracegen
