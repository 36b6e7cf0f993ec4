#include "faults/fault_schedule.hpp"

#include <algorithm>

namespace wtr::faults {

double FaultEpisode::severity_at(stats::SimTime now) const noexcept {
  if (!active_at(now)) return 0.0;
  if (!ramp) return severity;
  // Linear ramp over the (non-empty, since active) window. active_at
  // guarantees end > begin here.
  const double progress = static_cast<double>(now - begin) /
                          static_cast<double>(end - begin);
  return severity * progress;
}

void FaultSchedule::add(FaultEpisode episode) {
  episode.severity = std::clamp(episode.severity, 0.0, 1.0);
  episodes_.push_back(episode);
}

void FaultSchedule::add_outage(topology::OperatorId op, stats::SimTime begin,
                               stats::SimTime end, double severity) {
  FaultEpisode episode;
  episode.kind = FaultKind::kOutage;
  episode.op = op;
  episode.begin = begin;
  episode.end = end;
  episode.severity = severity;
  add(episode);
}

void FaultSchedule::add_storm(topology::OperatorId op, stats::SimTime begin,
                              stats::SimTime end, double severity) {
  FaultEpisode episode;
  episode.kind = FaultKind::kSignalingStorm;
  episode.op = op;
  episode.begin = begin;
  episode.end = end;
  episode.severity = severity;
  add(episode);
}

void FaultSchedule::add_degraded_path(topology::HubId hub, stats::SimTime begin,
                                      stats::SimTime end, double severity) {
  FaultEpisode episode;
  episode.kind = FaultKind::kDegradedPath;
  episode.hub = hub;
  episode.begin = begin;
  episode.end = end;
  episode.severity = severity;
  add(episode);
}

void FaultSchedule::add_misprovisioning_ramp(std::uint32_t fault_domain,
                                             stats::SimTime begin, stats::SimTime end,
                                             double peak_severity) {
  FaultEpisode episode;
  episode.kind = FaultKind::kMisprovisioning;
  episode.fault_domain = fault_domain;
  episode.begin = begin;
  episode.end = end;
  episode.severity = peak_severity;
  episode.ramp = true;
  add(episode);
}

void FaultSchedule::add_capacity_drop(topology::OperatorId op, stats::SimTime begin,
                                      stats::SimTime end, double severity,
                                      bool ramp) {
  FaultEpisode episode;
  episode.kind = FaultKind::kCapacityDrop;
  episode.op = op;
  episode.begin = begin;
  episode.end = end;
  episode.severity = severity;
  episode.ramp = ramp;
  add(episode);
}

FaultEffect FaultSchedule::effect_at(stats::SimTime now,
                                     topology::OperatorId visited_radio,
                                     topology::HubId via_hub,
                                     std::uint32_t fault_domain) const noexcept {
  FaultEffect effect;
  for (const auto& episode : episodes_) {
    const double severity = episode.severity_at(now);
    if (severity <= 0.0) continue;
    switch (episode.kind) {
      case FaultKind::kOutage:
      case FaultKind::kSignalingStorm: {
        if (episode.op != topology::kInvalidOperator && episode.op != visited_radio) {
          continue;
        }
        double& channel = episode.kind == FaultKind::kOutage ? effect.outage
                                                             : effect.storm_reject;
        channel = 1.0 - (1.0 - channel) * (1.0 - severity);
        break;
      }
      case FaultKind::kDegradedPath: {
        if (via_hub == topology::kInvalidHub) continue;  // not a hub-routed attempt
        if (episode.hub != topology::kInvalidHub && episode.hub != via_hub) continue;
        effect.path_degraded = 1.0 - (1.0 - effect.path_degraded) * (1.0 - severity);
        break;
      }
      case FaultKind::kMisprovisioning: {
        if (episode.fault_domain != kAnyFaultDomain &&
            episode.fault_domain != fault_domain) {
          continue;
        }
        effect.misprovisioned =
            1.0 - (1.0 - effect.misprovisioned) * (1.0 - severity);
        break;
      }
      case FaultKind::kCapacityDrop:
        // Consumed by CongestionModel::capacity_scale_at, not per attempt.
        break;
    }
  }
  return effect;
}

double FaultSchedule::capacity_scale_at(stats::SimTime now,
                                        topology::OperatorId radio) const noexcept {
  double scale = 1.0;
  for (const auto& episode : episodes_) {
    if (episode.kind != FaultKind::kCapacityDrop) continue;
    if (episode.op != topology::kInvalidOperator && episode.op != radio) continue;
    scale *= 1.0 - episode.severity_at(now);
  }
  return scale;
}

stats::SimTime FaultSchedule::first_begin() const noexcept {
  stats::SimTime first = 0;
  bool seen = false;
  for (const auto& episode : episodes_) {
    if (!seen || episode.begin < first) first = episode.begin;
    seen = true;
  }
  return first;
}

stats::SimTime FaultSchedule::last_end() const noexcept {
  stats::SimTime last = 0;
  for (const auto& episode : episodes_) last = std::max(last, episode.end);
  return last;
}

}  // namespace wtr::faults
