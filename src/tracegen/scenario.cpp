#include "tracegen/scenario.hpp"

namespace wtr::tracegen {

std::unordered_map<signaling::DeviceHash, devices::DeviceClass> class_truth(
    const GroundTruthMap& truth) {
  std::unordered_map<signaling::DeviceHash, devices::DeviceClass> out;
  out.reserve(truth.size());
  for (const auto& [device, entry] : truth) out.emplace(device, entry.device_class);
  return out;
}

ScenarioBase::ScenarioBase(topology::WorldConfig world_config,
                           cellnet::TacPools::Config tac_config,
                           sim::Engine::Config engine_config, const RunOptions& run,
                           std::uint64_t fleet_seed)
    : obs_(run.obs), tac_pools_(tac_config) {
  {
    obs::ScopedTimer timer{obs_.timers, "scenario/world"};
    world_ = std::make_unique<topology::World>(topology::World::build(world_config));
  }
  fleet_builder_ =
      std::make_unique<devices::FleetBuilder>(*world_, tac_pools_, fleet_seed);
  engine_config.threads = run.threads;
  engine_config.faults = run.faults;
  engine_config.metrics = obs_.metrics;
  engine_config.probe = obs_.probe;
  engine_config.checkpoint_every_sim_hours = run.ckpt.every_sim_hours;
  engine_config.checkpoint_path = run.ckpt.path;
  engine_config.stop_after_sim_hours = run.ckpt.stop_after_sim_hours;
  engine_config.trace_path = run.telemetry.trace_path;
  engine_config.trace_capacity_per_track = run.telemetry.trace_capacity_per_track;
  engine_config.heartbeat_path = run.telemetry.heartbeat_path;
  engine_config.heartbeat_every_wall_s = run.telemetry.heartbeat_every_wall_s;
  engine_ = std::make_unique<sim::Engine>(*world_, engine_config);
}

std::vector<signaling::DeviceHash> ScenarioBase::add_fleet(const devices::FleetSpec& spec,
                                                           sim::AgentOptions options) {
  obs::ScopedTimer timer{obs_.timers, "scenario/fleets"};
  std::vector<signaling::DeviceHash> hashes;
  if (spec.count == 0) return hashes;
  auto fleet = fleet_builder_->build(spec);
  devices_added_ += fleet.size();
  hashes.reserve(fleet.size());
  for (const auto& device : fleet) {
    hashes.push_back(device.id);
    truth_.emplace(device.id, GroundTruthEntry{device.profile.device_class,
                                               device.profile.vertical,
                                               device.home_operator});
  }
  engine_->add_fleet(std::move(fleet), std::move(options));
  return hashes;
}

void ScenarioBase::run(std::vector<sim::RecordSink*> sinks) {
  obs::ScopedTimer timer{obs_.timers, "engine/run"};
  engine_->run(std::move(sinks));
}

}  // namespace wtr::tracegen
