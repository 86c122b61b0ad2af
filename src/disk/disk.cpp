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
  const double observed = ledger_.observed().value();
  const double at_speeds =
      (ledger_.time_at_low + ledger_.time_at_high).value();
  const double busy_idle = (ledger_.busy_time + ledger_.idle_time).value();
  return approx_eq(observed, accounted_until_.value(), rel_tol) &&
         approx_eq(at_speeds, busy_idle, rel_tol) &&
         !(ledger_.energy < Joules{0.0});
}

Disk::Disk(DiskId id, const TwoSpeedDiskParams& params, DiskSpeed initial)
    : speed_(initial), id_(id), params_(params), initial_speed_(initial) {
  validate(params_);
  for (const DiskSpeed s : {DiskSpeed::kLow, DiskSpeed::kHigh}) {
    service_[static_cast<std::size_t>(s)] =
        service_constants(params_.mode(s == DiskSpeed::kHigh));
  }
}

void Disk::add_time_at_speed(DiskSpeed s, Seconds dt) {
  if (s == DiskSpeed::kLow) {
    ledger_.time_at_low += dt;
  } else {
    ledger_.time_at_high += dt;
  }
}

void Disk::account_idle_until(Seconds t) {
  PR_PRECONDITION(!(t < Seconds{0.0}),
                  "Disk: cannot account time before the simulation start");
  if (t <= accounted_until_) return;
  const Seconds dt = t - accounted_until_;
  ledger_.idle_time += dt;
  ledger_.energy += params_.mode(speed_ == DiskSpeed::kHigh).idle_power * dt;
  add_time_at_speed(speed_, dt);
  accounted_until_ = t;
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
  if (accounted_until_ > Seconds{0.0} || ready_time_ > Seconds{0.0} ||
      served_any()) {
    throw std::logic_error("Disk::set_seek_curve: simulation already started");
  }
  seek_curve_ = curve;
}

Seconds Disk::serve_impl(Seconds arrival, Bytes bytes, bool internal,
                         std::optional<Cylinder> cylinder) {
  if (arrival < Seconds{0.0}) {
    throw std::invalid_argument("Disk::serve: negative arrival");
  }
  const Seconds start = std::max(arrival, ready_time_);
  account_idle_until(start);

  const auto& mode = params_.mode(speed_ == DiskSpeed::kHigh);
  ServiceCost cost;
  cost.time = service_time(service_[static_cast<std::size_t>(speed_)], bytes);
  cost.energy = mode.active_power * cost.time;
  if (cylinder) {
    // Replace the average seek with the head-travel seek.
    const Cylinder target = *cylinder % seek_curve_->geometry().cylinders;
    const Cylinder distance =
        target >= head_ ? target - head_ : head_ - target;
    cost.time = cost.time - mode.avg_seek + seek_curve_->seek_time(distance);
    cost.energy = mode.active_power * cost.time;
    head_ = target;
  }
  ledger_.busy_time += cost.time;
  ledger_.energy += cost.energy;
  add_time_at_speed(speed_, cost.time);
  if (internal) {
    ++ledger_.internal_ops;
    ledger_.internal_bytes += bytes;
  } else {
    ++ledger_.requests;
    ledger_.bytes_served += bytes;
  }

  const Seconds ready = start + cost.time;
  ready_time_ = ready;
  accounted_until_ = ready;
  PR_INVARIANT(!(ready < start), "Disk::serve: ready time moved backwards");
  return ready;
}

void Disk::note_transition_start(Seconds at) {
  const auto day = static_cast<std::int64_t>(
      std::floor(at.value() / kSecondsPerDay.value()));
  if (day != current_day_) {
    current_day_ = day;
    transitions_in_day_ = 0;
  }
  ++transitions_in_day_;
  ledger_.max_transitions_in_day =
      std::max(ledger_.max_transitions_in_day, transitions_in_day_);
}

Seconds Disk::transition(Seconds at, DiskSpeed target) {
  PR_PRECONDITION(!(at < Seconds{0.0}),
                  "Disk::transition: negative transition time");
  const Seconds start = std::max(at, ready_time_);
  if (target == speed_) return start;
  // 2-speed legality: each recorded transition changes the speed, so the
  // history must strictly alternate low/high.
  PR_INVARIANT(
      speed_history_.empty() || speed_history_.back().second != target,
      "Disk::transition: speed history stopped alternating");
  account_idle_until(start);

  const bool up = target == DiskSpeed::kHigh;
  const Seconds dur =
      up ? params_.transition_up_time : params_.transition_down_time;
  const Joules lump =
      up ? params_.transition_up_energy : params_.transition_down_energy;

  ledger_.transition_time += dur;
  ledger_.energy += lump;
  ++ledger_.transitions;
  if (up) ++ledger_.transitions_up;
  note_transition_start(start);

  speed_ = target;
  const Seconds ready = start + dur;
  ready_time_ = ready;
  accounted_until_ = ready;
  speed_history_.emplace_back(ready, target);
  return ready;
}

void Disk::finish(Seconds end) {
  account_idle_until(end);
  PR_INVARIANT(ledger_conserves(),
               "Disk::finish: ledger does not conserve time/energy");
}

void Disk::set_initial_speed(DiskSpeed speed) {
  if (accounted_until_ > Seconds{0.0} || ready_time_ > Seconds{0.0} ||
      served_any() || ledger_.transitions != 0) {
    throw std::logic_error(
        "Disk::set_initial_speed: simulation already started");
  }
  speed_ = speed;
  initial_speed_ = speed;
}

std::uint64_t Disk::transitions_today(Seconds now) const {
  const auto day = static_cast<std::int64_t>(
      std::floor(now.value() / kSecondsPerDay.value()));
  return day == current_day_ ? transitions_in_day_ : 0;
}

Celsius Disk::mean_temperature() const {
  const double t_low = ledger_.time_at_low.value();
  const double t_high = ledger_.time_at_high.value();
  const double t_trans = ledger_.transition_time.value();
  const double total = t_low + t_high + t_trans;
  const double low_c = params_.low.operating_temp.value();
  const double high_c = params_.high.operating_temp.value();
  if (total <= 0.0) {
    return speed_ == DiskSpeed::kHigh ? params_.high.operating_temp
                                      : params_.low.operating_temp;
  }
  const double mid = 0.5 * (low_c + high_c);
  return Celsius{(t_low * low_c + t_high * high_c + t_trans * mid) / total};
}

Celsius Disk::max_temperature() const {
  if (ledger_.time_at_high.value() > 0.0 || speed_ == DiskSpeed::kHigh) {
    return params_.high.operating_temp;
  }
  return params_.low.operating_temp;
}

}  // namespace pr
