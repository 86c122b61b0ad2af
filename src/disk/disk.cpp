#include "disk/disk.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "util/contracts.h"

namespace pr {

namespace {

bool approx_eq(double a, double b, double rel_tol) {
  const double scale = std::max({1.0, std::fabs(a), std::fabs(b)});
  return std::fabs(a - b) <= rel_tol * scale;
}

}  // namespace

bool Disk::ledger_conserves(double rel_tol) const {
  const DiskLedger& ledger = soa_->ledger[slot_];
  const double observed = ledger.observed().value();
  const double at_speeds = (ledger.time_at_low + ledger.time_at_high).value();
  const double busy_idle = (ledger.busy_time + ledger.idle_time).value();
  return approx_eq(observed, soa_->accounted_until[slot_].value(), rel_tol) &&
         approx_eq(at_speeds, busy_idle, rel_tol) &&
         !(ledger.energy < Joules{0.0});
}

Disk::Disk(DiskId id, const TwoSpeedDiskParams& params, DiskSpeed initial)
    : owned_(std::make_unique<DiskArraySoA>(1)),
      soa_(owned_.get()),
      slot_(0),
      id_(id),
      params_(params) {
  validate(params_);
  soa_->speed[slot_] = initial;
  soa_->initial_speed[slot_] = initial;
}

Disk::Disk(DiskArraySoA& soa, std::uint32_t slot, DiskId id,
           const TwoSpeedDiskParams& params, DiskSpeed initial)
    : soa_(&soa), slot_(slot), id_(id), params_(params) {
  PR_PRECONDITION(slot < soa.size(),
                  "Disk: facade slot beyond the SoA's size");
  validate(params_);
  soa_->speed[slot_] = initial;
  soa_->initial_speed[slot_] = initial;
}

void Disk::add_time_at_speed(DiskSpeed s, Seconds dt) {
  DiskLedger& ledger = soa_->ledger[slot_];
  if (s == DiskSpeed::kLow) {
    ledger.time_at_low += dt;
  } else {
    ledger.time_at_high += dt;
  }
}

void Disk::account_idle_until(Seconds t) {
  PR_PRECONDITION(!(t < Seconds{0.0}),
                  "Disk: cannot account time before the simulation start");
  if (t <= soa_->accounted_until[slot_]) return;
  const Seconds dt = t - soa_->accounted_until[slot_];
  DiskLedger& ledger = soa_->ledger[slot_];
  ledger.idle_time += dt;
  ledger.energy +=
      params_.mode(soa_->speed[slot_] == DiskSpeed::kHigh).idle_power * dt;
  add_time_at_speed(soa_->speed[slot_], dt);
  soa_->accounted_until[slot_] = t;
}

Seconds Disk::serve(Seconds arrival, Bytes bytes, bool internal) {
  return serve_impl(arrival, bytes, internal, std::nullopt);
}

Seconds Disk::serve_positioned(Seconds arrival, Bytes bytes,
                               Cylinder cylinder, bool internal) {
  if (!seek_curve_) return serve(arrival, bytes, internal);
  return serve_impl(arrival, bytes, internal, cylinder);
}

void Disk::set_seek_curve(const SeekCurve& curve) {
  if (soa_->accounted_until[slot_] > Seconds{0.0} ||
      soa_->ready_time[slot_] > Seconds{0.0} || served_any()) {
    throw std::logic_error("Disk::set_seek_curve: simulation already started");
  }
  seek_curve_ = curve;
}

Seconds Disk::serve_impl(Seconds arrival, Bytes bytes, bool internal,
                         std::optional<Cylinder> cylinder) {
  if (arrival < Seconds{0.0}) {
    throw std::invalid_argument("Disk::serve: negative arrival");
  }
  const Seconds start = std::max(arrival, soa_->ready_time[slot_]);
  account_idle_until(start);

  const auto& mode = params_.mode(soa_->speed[slot_] == DiskSpeed::kHigh);
  ServiceCost cost = service_cost(mode, bytes);
  if (cylinder) {
    // Replace the average seek with the head-travel seek.
    const Cylinder head = soa_->head[slot_];
    const Cylinder target = *cylinder % seek_curve_->geometry().cylinders;
    const Cylinder distance = target >= head ? target - head : head - target;
    cost.time = cost.time - mode.avg_seek + seek_curve_->seek_time(distance);
    cost.energy = mode.active_power * cost.time;
    soa_->head[slot_] = target;
  }
  DiskLedger& ledger = soa_->ledger[slot_];
  ledger.busy_time += cost.time;
  ledger.energy += cost.energy;
  add_time_at_speed(soa_->speed[slot_], cost.time);
  if (internal) {
    ++ledger.internal_ops;
    ledger.internal_bytes += bytes;
  } else {
    ++ledger.requests;
    ledger.bytes_served += bytes;
  }

  const Seconds ready = start + cost.time;
  soa_->ready_time[slot_] = ready;
  soa_->accounted_until[slot_] = ready;
  PR_INVARIANT(!(ready < start), "Disk::serve: ready time moved backwards");
  return ready;
}

void Disk::note_transition_start(Seconds at) {
  const auto day = static_cast<std::int64_t>(
      std::floor(at.value() / kSecondsPerDay.value()));
  if (day != soa_->current_day[slot_]) {
    soa_->current_day[slot_] = day;
    soa_->transitions_in_day[slot_] = 0;
  }
  ++soa_->transitions_in_day[slot_];
  DiskLedger& ledger = soa_->ledger[slot_];
  ledger.max_transitions_in_day = std::max(ledger.max_transitions_in_day,
                                           soa_->transitions_in_day[slot_]);
}

Seconds Disk::transition(Seconds at, DiskSpeed target) {
  PR_PRECONDITION(!(at < Seconds{0.0}),
                  "Disk::transition: negative transition time");
  const Seconds start = std::max(at, soa_->ready_time[slot_]);
  if (target == soa_->speed[slot_]) return start;
  // 2-speed legality: each recorded transition changes the speed, so the
  // history must strictly alternate low/high.
  auto& history = soa_->speed_history[slot_];
  PR_INVARIANT(history.empty() || history.back().second != target,
               "Disk::transition: speed history stopped alternating");
  account_idle_until(start);

  const bool up = target == DiskSpeed::kHigh;
  const Seconds dur =
      up ? params_.transition_up_time : params_.transition_down_time;
  const Joules lump =
      up ? params_.transition_up_energy : params_.transition_down_energy;

  DiskLedger& ledger = soa_->ledger[slot_];
  ledger.transition_time += dur;
  ledger.energy += lump;
  ++ledger.transitions;
  if (up) ++ledger.transitions_up;
  note_transition_start(start);

  soa_->speed[slot_] = target;
  const Seconds ready = start + dur;
  soa_->ready_time[slot_] = ready;
  soa_->accounted_until[slot_] = ready;
  history.emplace_back(ready, target);
  return ready;
}

void Disk::finish(Seconds end) {
  account_idle_until(end);
  PR_INVARIANT(ledger_conserves(),
               "Disk::finish: ledger does not conserve time/energy");
}

void Disk::set_initial_speed(DiskSpeed speed) {
  if (soa_->accounted_until[slot_] > Seconds{0.0} ||
      soa_->ready_time[slot_] > Seconds{0.0} || served_any() ||
      soa_->ledger[slot_].transitions != 0) {
    throw std::logic_error(
        "Disk::set_initial_speed: simulation already started");
  }
  soa_->speed[slot_] = speed;
  soa_->initial_speed[slot_] = speed;
}

std::uint64_t Disk::transitions_today(Seconds now) const {
  const auto day = static_cast<std::int64_t>(
      std::floor(now.value() / kSecondsPerDay.value()));
  return day == soa_->current_day[slot_] ? soa_->transitions_in_day[slot_]
                                         : 0;
}

Celsius Disk::mean_temperature() const {
  const DiskLedger& ledger = soa_->ledger[slot_];
  const double t_low = ledger.time_at_low.value();
  const double t_high = ledger.time_at_high.value();
  const double t_trans = ledger.transition_time.value();
  const double total = t_low + t_high + t_trans;
  const double low_c = params_.low.operating_temp.value();
  const double high_c = params_.high.operating_temp.value();
  if (total <= 0.0) {
    return soa_->speed[slot_] == DiskSpeed::kHigh ? params_.high.operating_temp
                                                  : params_.low.operating_temp;
  }
  const double mid = 0.5 * (low_c + high_c);
  return Celsius{(t_low * low_c + t_high * high_c + t_trans * mid) / total};
}

Celsius Disk::max_temperature() const {
  if (soa_->ledger[slot_].time_at_high.value() > 0.0 ||
      soa_->speed[slot_] == DiskSpeed::kHigh) {
    return params_.high.operating_temp;
  }
  return params_.low.operating_temp;
}

}  // namespace pr
