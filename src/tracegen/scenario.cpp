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
  engine_config.ckpt = run.ckpt;
  engine_config.telemetry = run.telemetry;
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
