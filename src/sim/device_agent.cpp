#include "sim/device_agent.hpp"

#include <algorithm>
#include <array>
#include <cassert>
#include <cmath>
#include <stdexcept>
#include <string>

#include "cellnet/country.hpp"
#include "stats/distributions.hpp"

namespace wtr::sim {

using stats::SimTime;

DeviceAgent::DeviceAgent(devices::Device* device, const AgentOptions* options,
                         stats::Rng rng, stats::SimTime first_wake)
    : device_(device),
      options_(options),
      rng_(rng),
      backoff_(options->backoff),
      last_wake_(first_wake),
      dwell_since_(first_wake) {
  assert(device != nullptr && options != nullptr);
}

SimTime DeviceAgent::departure_time() const noexcept {
  return stats::day_start(device_->departure_day);
}

SimTime DeviceAgent::plan_first_wake(const devices::Device& device, stats::Rng& rng) {
  assert(device.departure_day > device.arrival_day);
  const SimTime start = stats::day_start(device.arrival_day);
  const SimTime offset =
      static_cast<SimTime>(rng.uniform() * static_cast<double>(stats::kSecondsPerDay));
  return start + offset;
}

std::optional<SimTime> DeviceAgent::schedule_next(SimTime now) {
  // T3346 wins while running: the UE may not retry mobility management
  // until the network-assigned congestion backoff expires, whatever the
  // session process or the T3411 machine would prefer.
  const bool t3346_wait = options_->honor_congestion_control && !emm_.attached() &&
                          t3346_.running(now);
  SimTime next;
  if (t3346_wait) {
    next = t3346_.expiry();
  } else if (options_->backoff.enabled && !emm_.attached() && last_attach_failed_) {
    // Mechanistic retry path: a failed attach round schedules the next wake
    // from the 3GPP backoff machine (T3411 short retry, T3402 long backoff).
    // The delay was drawn in try_attach; no further randomness is consumed.
    next = now + static_cast<SimTime>(std::max(1.0, pending_retry_delay_s_));
  } else if (options_->checkin.enabled) {
    // Synchronized check-in: the next fixed-period beat after `now`,
    // anchored at offset_s, plus a small uniform jitter. The whole fleet
    // shares the anchor — the thundering herd is the point.
    const double period = std::max(1.0, options_->checkin.period_s);
    const double now_d = static_cast<double>(now);
    double beat = options_->checkin.offset_s;
    if (now_d >= beat) {
      beat += (std::floor((now_d - beat) / period) + 1.0) * period;
    }
    beat += rng_.uniform() * std::max(0.0, options_->checkin.jitter_s);
    next = static_cast<SimTime>(beat);
  } else {
    // Session process: exponential inter-arrival at the device's rate,
    // modulated by the profile's diurnal shape. Unattached devices retry
    // faster (registration storms — the Fig. 3 signaling-flood tail).
    double rate_per_s =
        device_->sessions_per_day / static_cast<double>(stats::kSecondsPerDay);
    // Registration retries back off only from *failed* attach attempts; a
    // device that detached voluntarily wakes at its normal session rate.
    if (!emm_.attached() && last_attach_failed_) {
      rate_per_s *= options_->retry_rate_boost;
    }
    const double weight = stats::diurnal_weight(now, device_->profile.diurnal_floor);
    rate_per_s *= std::max(0.02, weight);
    double dt = stats::sample_exponential(rng_, std::max(rate_per_s, 1e-9));
    dt = stats::clamped(dt, 30.0, 7.0 * stats::kSecondsPerDay);
    next = now + static_cast<SimTime>(dt);
  }

  // A pending FOTA wave/retry due before the natural beat pulls the wake
  // earlier — unless T3346 bars the device anyway.
  if (!t3346_wait) {
    if (const auto due = fota_due_time(now); due && *due < next) next = *due;
  }

  if (next >= departure_time()) next = departure_time();
  if (next <= now) next = now + 1;
  return next;
}

DeviceAgent::Serving DeviceAgent::locate(const AgentContext& ctx,
                                         const NetworkChoice& choice) const {
  Serving serving;
  serving.visited = choice.visited;
  serving.rat = choice.rat;
  serving.is_home = choice.is_home_network;
  const auto radio = ctx.world->operators().radio_network_of(choice.visited);
  if (ctx.world->coverage().has_grid(radio)) {
    const auto& grid = ctx.world->coverage().grid(radio);
    // Devices camp on the nearest sector. If that sector does not deploy
    // the desired RAT but deploys a lower one the hardware supports, the
    // RAT degrades in place (rural 2G pockets); only a device with no
    // usable technology on the local sector hunts for a farther one.
    const auto& local = grid.serving_sector(device_->east_m, device_->north_m);
    if (local.rats.has(choice.rat)) {
      serving.sector = local.id;
      serving.location = local.location;
    } else {
      const auto usable = device_->capability.intersect(local.rats);
      if (usable.any()) {
        serving.sector = local.id;
        serving.location = local.location;
        if (usable.has(cellnet::Rat::kFourG)) {
          serving.rat = cellnet::Rat::kFourG;
        } else if (usable.has(cellnet::Rat::kThreeG)) {
          serving.rat = cellnet::Rat::kThreeG;
        } else if (usable.has(cellnet::Rat::kTwoG)) {
          serving.rat = cellnet::Rat::kTwoG;
        } else {
          serving.rat = cellnet::Rat::kNbIot;
        }
      } else {
        const auto sector_id =
            grid.serving_sector_with_rat(device_->east_m, device_->north_m, choice.rat);
        const auto& sector = grid.sector(sector_id ? *sector_id : local.id);
        serving.sector = sector.id;
        serving.location = sector.location;
      }
    }
  } else {
    // Coverage disabled: approximate position from the country anchor.
    const auto& country = cellnet::country_at(device_->current_country);
    const cellnet::GeoPoint anchor{country.lat, country.lon};
    serving.sector = 0;
    serving.location = cellnet::offset_m(anchor, device_->east_m, device_->north_m);
  }
  return serving;
}

void DeviceAgent::emit_signaling(const AgentContext& ctx, SimTime now,
                                 signaling::Procedure procedure,
                                 signaling::ResultCode result, cellnet::Rat rat,
                                 bool data_context) {
  signaling::SignalingTransaction txn;
  txn.device = device_->id;
  txn.time = now;
  txn.sim_plmn = ctx.world->operators().get(device_->home_operator).plmn;
  txn.visited_plmn = ctx.world->operators().get(serving_.visited).plmn;
  txn.procedure = procedure;
  txn.result = result;
  txn.rat = rat;
  txn.sector = serving_.sector;
  txn.tac = device_->imei.tac();
  ctx.sink->on_signaling(txn, data_context);
}

void DeviceAgent::flush_dwell(const AgentContext& ctx, SimTime now) {
  if (!emm_.attached() || now <= dwell_since_) {
    dwell_since_ = now;
    return;
  }
  // Split the dwell interval on day boundaries so daily mobility metrics
  // see exactly the time spent within each day.
  const auto visited_plmn = ctx.world->operators().get(serving_.visited).plmn;
  SimTime from = dwell_since_;
  while (from < now) {
    const std::int32_t day = stats::day_of(from);
    const SimTime day_end = stats::day_start(day + 1);
    const SimTime to = std::min(now, day_end);
    ctx.sink->on_dwell(device_->id, day, visited_plmn, serving_.location,
                       static_cast<double>(to - from));
    from = to;
  }
  dwell_since_ = now;
}

bool DeviceAgent::try_attach(const AgentContext& ctx, SimTime now,
                             std::optional<topology::OperatorId> exclude) {
  assert(!emm_.attached());
  auto candidates = ctx.selector->scan(*device_, exclude, rng_);
  // Stickiness: move the last successfully used network to the front.
  if (preferred_visited_ && (!exclude || *exclude != *preferred_visited_)) {
    const auto it = std::find_if(candidates.begin(), candidates.end(),
                                 [&](const NetworkChoice& c) {
                                   return c.visited == *preferred_visited_;
                                 });
    if (it != candidates.end()) {
      std::rotate(candidates.begin(), it, it + 1);
    }
  }
  int attempts = 0;
  bool barred_any = false;
  bool congested = false;
  topology::OperatorId congested_radio = topology::kInvalidOperator;
  for (const auto& candidate : candidates) {
    if (attempts >= options_->max_attach_attempts) break;
    // Extended access barring: a delay-tolerant device that honours the
    // barring bitmap may not even signal on an overloaded network — the
    // attempt is suppressed at the radio level, consuming no RNG (the EAB
    // state is barrier-synchronized, so every thread count sees the same
    // bitmap here).
    if (options_->eab_member && options_->honor_congestion_control) {
      const auto radio = ctx.world->operators().radio_network_of(candidate.visited);
      if (ctx.outcomes->eab_barred(radio)) {
        ctx.outcomes->note_eab_barred(radio);
        barred_any = true;
        continue;
      }
    }
    // Conservative retry behaviour: once a network has been chosen (the
    // sticky preferred one, or the first scanned), a rejection usually ends
    // this wake's registration attempt instead of walking the PLMN list.
    if (attempts > 0 && !rng_.bernoulli(options_->p_explore_after_failure)) break;
    ++attempts;
    if (!preferred_visited_) preferred_visited_ = candidate.visited;
    std::optional<cellnet::Rat> rat = candidate.rat;
    // The chain is 4G → 3G → 2G; locate() may bend the RAT per-sector, so a
    // hard bound keeps the walk finite under any sector/hardware geometry.
    int chain_steps = 0;
    while (rat && chain_steps++ < 4) {
      serving_ =
          locate(ctx, NetworkChoice{candidate.visited, *rat, candidate.is_home_network});
      const cellnet::Rat effective_rat = serving_.rat;  // may degrade per-sector
      emm_.begin_attach(candidate.visited);
      const auto auth_result = ctx.outcomes->evaluate(
          *ctx.world, now, device_->home_operator, candidate.visited, effective_rat,
          device_->capability, device_->sim_allowed_rats, device_->subscription_ok,
          device_->fault_domain, rng_);
      emit_signaling(ctx, now, signaling::Procedure::kAuthentication, auth_result,
                     effective_rat, /*data_context=*/true);
      auto next_step = emm_.on_attach_step_result(auth_result);
      if (options_->honor_congestion_control &&
          auth_result == signaling::ResultCode::kCongestion) {
        congested = true;
        congested_radio = ctx.world->operators().radio_network_of(candidate.visited);
        break;
      }
      if (next_step) {
        const auto update_result = ctx.outcomes->evaluate(
            *ctx.world, now, device_->home_operator, candidate.visited, effective_rat,
            device_->capability, device_->sim_allowed_rats, device_->subscription_ok,
            device_->fault_domain, rng_);
        emit_signaling(ctx, now, signaling::Procedure::kUpdateLocation, update_result,
                       effective_rat, /*data_context=*/true);
        emm_.on_attach_step_result(update_result);
        if (options_->honor_congestion_control &&
            update_result == signaling::ResultCode::kCongestion) {
          congested = true;
          congested_radio = ctx.world->operators().radio_network_of(candidate.visited);
          break;
        }
      }
      if (emm_.attached()) {
        dwell_since_ = now;
        preferred_visited_ = candidate.visited;
        last_attach_failed_ = false;
        if (options_->backoff.enabled) backoff_.on_success();
        return true;
      }
      // RAT fallback on the same network (4G → 3G → 2G).
      rat = ctx.selector->radio_fallback_rat(*device_, candidate.visited, effective_rat);
    }
    if (congested) break;
  }
  serving_ = Serving{};
  if (congested) {
    // Congestion control: start T3346 at the network-assigned value with a
    // ±10% UE jitter (one uniform draw, only on this path). A congestion
    // reject does NOT advance the T3411/T3402 attempt counter (TS 24.301
    // §5.5.1.2.5) — the mobility backoff timer alone gates the next try.
    const double assigned = ctx.outcomes->congestion_backoff_s(congested_radio);
    const double jitter = 0.9 + 0.2 * rng_.uniform();
    t3346_.start(now + static_cast<SimTime>(std::max(1.0, assigned * jitter)));
    last_attach_failed_ = true;
    return false;
  }
  if (attempts == 0 && barred_any) {
    // Every candidate barred this device class: shed the load entirely —
    // no signaling happened, no backoff advances, and the next wake comes
    // at the natural session beat (graceful degradation, not a retry loop).
    last_attach_failed_ = false;
    return false;
  }
  last_attach_failed_ = true;
  // The whole round failed: advance the backoff machine. Drawing the retry
  // delay here (not in schedule_next) keeps the jitter draw adjacent to the
  // failure that caused it, and only when the mechanism is enabled — the
  // legacy path consumes an identical RNG stream to the pre-backoff build.
  if (options_->backoff.enabled) pending_retry_delay_s_ = backoff_.on_failure(rng_);
  return false;
}

void DeviceAgent::do_session(const AgentContext& ctx, SimTime now) {
  assert(emm_.attached());
  const auto& profile = device_->profile;

  // Mobility-management chatter riding on the session.
  const auto updates = stats::sample_poisson(rng_, profile.area_updates_per_session);
  for (std::uint64_t i = 0; i < updates; ++i) {
    const bool on_lte = serving_.rat == cellnet::Rat::kFourG;
    const auto procedure = emm_.area_update(on_lte);
    // Area updates ride an existing registration; they are not the
    // attach-family load the congestion model meters.
    const auto result = ctx.outcomes->evaluate(
        *ctx.world, now, device_->home_operator, serving_.visited, serving_.rat,
        device_->capability, device_->sim_allowed_rats, device_->subscription_ok,
        device_->fault_domain, rng_, /*attach_family=*/false);
    emit_signaling(ctx, now, procedure, result, serving_.rat, /*data_context=*/true);
  }

  const auto sim_plmn = ctx.world->operators().get(device_->home_operator).plmn;
  const auto visited_plmn = ctx.world->operators().get(serving_.visited).plmn;

  // Data usage.
  if (device_->uses_data()) {
    const double mean_session_bytes =
        device_->bytes_per_day / std::max(0.05, device_->sessions_per_day);
    const double noise = stats::sample_lognormal(rng_, -0.125, 0.5);  // mean ≈ 1
    const auto bytes = static_cast<std::uint64_t>(
        stats::clamped(mean_session_bytes * noise, 1.0, 1.0e11));
    const double up_fraction = device_->profile.device_class == devices::DeviceClass::kM2M
                                   ? options_->uplink_fraction_m2m
                                   : options_->uplink_fraction_phone;
    records::Xdr xdr;
    xdr.device = device_->id;
    xdr.time = now;
    xdr.sim_plmn = sim_plmn;
    xdr.visited_plmn = visited_plmn;
    xdr.bytes_up = static_cast<std::uint64_t>(static_cast<double>(bytes) * up_fraction);
    xdr.bytes_down = bytes - xdr.bytes_up;
    xdr.apn = device_->apn;
    xdr.rat = serving_.rat;
    ctx.sink->on_xdr(xdr);
  }

  // Voice usage, thinned to the device's call rate.
  if (device_->uses_voice()) {
    const double p_call =
        std::min(1.0, device_->calls_per_day / std::max(0.05, device_->sessions_per_day));
    if (rng_.bernoulli(p_call)) {
      records::Cdr cdr;
      cdr.device = device_->id;
      cdr.time = now;
      cdr.sim_plmn = sim_plmn;
      cdr.visited_plmn = visited_plmn;
      cdr.duration_s = stats::sample_exponential(
          rng_, 1.0 / std::max(1.0, device_->profile.call_seconds_mean));
      // Voice rides the circuit-switched interface of the serving RAT; on
      // LTE-only attachments it falls back (CSFB) to the best legacy RAT.
      cdr.rat = serving_.rat == cellnet::Rat::kFourG
                    ? (device_->capability.has(cellnet::Rat::kThreeG)
                           ? cellnet::Rat::kThreeG
                           : cellnet::Rat::kTwoG)
                    : serving_.rat;
      ctx.sink->on_cdr(cdr);
      // The call itself needs radio resources: one CS signaling event.
      emit_signaling(ctx, now, signaling::Procedure::kAttach, signaling::ResultCode::kOk,
                     cdr.rat, /*data_context=*/false);
    }
  }
}

SimTime DeviceAgent::fota_wave_time() const noexcept {
  const int waves = std::max(1, options_->fota.waves);
  return options_->fota.start_s +
         static_cast<SimTime>(device_->id % static_cast<std::uint64_t>(waves)) *
             options_->fota.wave_interval_s;
}

std::optional<SimTime> DeviceAgent::fota_due_time(SimTime now) const {
  if (!options_->fota.enabled || fota_done_ ||
      fota_attempts_ >= options_->fota.max_attempts) {
    return std::nullopt;
  }
  const SimTime due = fota_attempts_ == 0 ? fota_wave_time() : fota_retry_at_;
  // Already due: the next wake (whenever it lands) attempts the download;
  // only a *future* due time needs the wake pulled earlier.
  if (due <= now) return std::nullopt;
  return due;
}

void DeviceAgent::maybe_fota(const AgentContext& ctx, SimTime now) {
  assert(emm_.attached());
  if (!options_->fota.enabled || fota_done_ ||
      fota_attempts_ >= options_->fota.max_attempts) {
    return;
  }
  if (now < fota_wave_time()) return;                       // wave not started
  if (fota_attempts_ > 0 && now < fota_retry_at_) return;   // retry timer live
  ++fota_attempts_;
  const bool failed = rng_.bernoulli(options_->fota.failure_p);

  // The (possibly partial) image transfer: a failed download aborts at a
  // fixed fraction of the image, then the retry timer re-pulls the whole
  // thing — the bandwidth signature of a broken-image retry storm.
  records::Xdr xdr;
  xdr.device = device_->id;
  xdr.time = now;
  xdr.sim_plmn = ctx.world->operators().get(device_->home_operator).plmn;
  xdr.visited_plmn = ctx.world->operators().get(serving_.visited).plmn;
  const double fraction = failed ? 0.35 : 1.0;
  xdr.bytes_down = static_cast<std::uint64_t>(options_->fota.image_bytes * fraction);
  xdr.bytes_up = static_cast<std::uint64_t>(
      std::max(1.0, options_->fota.image_bytes * 0.01));
  xdr.apn = device_->apn;
  xdr.rat = serving_.rat;
  ctx.sink->on_xdr(xdr);

  if (failed) {
    fota_retry_at_ =
        now + options_->fota.retry_s +
        static_cast<SimTime>(rng_.uniform() * std::max(0.0, options_->fota.retry_jitter_s));
  } else {
    fota_done_ = true;
  }
}

void DeviceAgent::finalize(SimTime now, const AgentContext& ctx) {
  if (finalized_) return;
  // The departure instant is the first second *outside* the active window;
  // stamp the cleanup one tick earlier so the final detach (and dwell)
  // lands on the device's last active day, not a phantom extra day.
  const SimTime stamp = std::min(now, departure_time() - 1);
  flush_dwell(ctx, stamp);
  if (emm_.attached()) {
    const auto rat = serving_.rat;
    emm_.detach();
    emit_signaling(ctx, stamp, signaling::Procedure::kDetach, signaling::ResultCode::kOk,
                   rat, /*data_context=*/true);
  }
  finalized_ = true;
}

void DeviceAgent::save_state(util::BinWriter& out) const {
  out.u64(device_->id);
  out.str(cellnet::country_at(device_->current_country).iso);
  out.f64(device_->east_m);
  out.f64(device_->north_m);
  for (const auto word : rng_.state()) out.u64(word);
  emm_.save_state(out);
  backoff_.save_state(out);
  out.f64(pending_retry_delay_s_);
  out.u32(serving_.visited);
  out.u8(static_cast<std::uint8_t>(serving_.rat));
  out.u32(serving_.sector);
  out.f64(serving_.location.lat);
  out.f64(serving_.location.lon);
  out.b(serving_.is_home);
  out.b(preferred_visited_.has_value());
  out.u32(preferred_visited_.value_or(topology::kInvalidOperator));
  out.i64(last_wake_);
  out.i64(dwell_since_);
  out.b(last_attach_failed_);
  out.b(finalized_);
  t3346_.save_state(out);
  out.b(fota_done_);
  out.i32(fota_attempts_);
  out.i64(fota_retry_at_);
}

void DeviceAgent::restore_state(util::BinReader& in) {
  const auto id = in.u64();
  if (id != device_->id) {
    throw std::runtime_error(
        "DeviceAgent::restore_state: snapshot device id does not match the "
        "rebuilt fleet (different scenario seed or composition?)");
  }
  const std::string iso = in.str();
  const auto country = cellnet::country_id(iso);
  if (!country) {
    throw std::runtime_error("DeviceAgent::restore_state: unknown country code \"" + iso +
                             "\" in snapshot");
  }
  device_->current_country = *country;
  device_->east_m = in.f64();
  device_->north_m = in.f64();
  std::array<std::uint64_t, 4> rng_state{};
  for (auto& word : rng_state) word = in.u64();
  rng_.set_state(rng_state);
  emm_.restore_state(in);
  backoff_.restore_state(in);
  pending_retry_delay_s_ = in.f64();
  serving_.visited = in.u32();
  serving_.rat = static_cast<cellnet::Rat>(in.u8());
  serving_.sector = in.u32();
  serving_.location.lat = in.f64();
  serving_.location.lon = in.f64();
  serving_.is_home = in.b();
  const bool has_preferred = in.b();
  const auto preferred = in.u32();
  preferred_visited_ =
      has_preferred ? std::optional<topology::OperatorId>{preferred} : std::nullopt;
  last_wake_ = in.i64();
  dwell_since_ = in.i64();
  last_attach_failed_ = in.b();
  finalized_ = in.b();
  t3346_.restore_state(in);
  fota_done_ = in.b();
  fota_attempts_ = in.i32();
  fota_retry_at_ = in.i64();
}

std::optional<SimTime> DeviceAgent::on_wake(SimTime now, const AgentContext& ctx) {
  assert(ctx.world && ctx.selector && ctx.outcomes && ctx.sink);
  if (finalized_) return std::nullopt;
  if (now >= departure_time()) {
    finalize(now, ctx);
    return std::nullopt;
  }

  // Dwell at the previous location accrues until this wake.
  flush_dwell(ctx, now);

  const cellnet::CountryId country_before = device_->current_country;
  advance_position(*device_, static_cast<double>(now - last_wake_), options_->corridor,
                   rng_);
  last_wake_ = now;
  const bool crossed_border = device_->current_country != country_before;
  if (crossed_border) preferred_visited_.reset();

  // Reselection: border crossings force it; roamers churn with the
  // profile's switch propensity (§3.3's inter-VMNO switch distribution).
  if (emm_.attached()) {
    const bool roaming_switch =
        !serving_.is_home && rng_.bernoulli(device_->profile.p_vmno_switch);
    if (crossed_border || roaming_switch) {
      const auto old_visited = serving_.visited;
      emm_.cancel_location();
      emit_signaling(ctx, now, signaling::Procedure::kCancelLocation,
                     signaling::ResultCode::kOk, serving_.rat, /*data_context=*/true);
      try_attach(ctx, now, crossed_border ? std::nullopt
                                          : std::optional<topology::OperatorId>{old_visited});
    } else {
      // Position may have moved within the same network: refresh the sector.
      serving_ = locate(ctx, NetworkChoice{serving_.visited, serving_.rat,
                                           serving_.is_home});
    }
  } else if (!(options_->honor_congestion_control && t3346_.running(now))) {
    // A wake scheduled before the congestion reject can land while T3346 is
    // still live; the UE may not re-attach until it expires.
    try_attach(ctx, now, std::nullopt);
  }

  if (emm_.attached()) {
    do_session(ctx, now);
    maybe_fota(ctx, now);
    if (rng_.bernoulli(device_->profile.p_detach_after_session)) {
      flush_dwell(ctx, now);
      const auto rat = serving_.rat;
      emm_.detach();
      emit_signaling(ctx, now, signaling::Procedure::kDetach,
                     signaling::ResultCode::kOk, rat, /*data_context=*/true);
    }
  }

  const auto next = schedule_next(now);
  if (next && *next >= departure_time()) {
    // The next beat would fall outside the active window: one last event at
    // the departure instant cleans up (detach + final dwell).
    return departure_time();
  }
  return next;
}

}  // namespace wtr::sim
