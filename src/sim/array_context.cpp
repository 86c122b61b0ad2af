// array_context.cpp — the policy-facing ArrayContext: placement, data
// movement, speed changes and the DPM table (sim/array_sim.h).
#include <algorithm>
#include <stdexcept>

#include "sim/array_sim.h"

namespace pr {

ArrayContext::ArrayContext(const SimConfig& config, const FileSet& files,
                           SimObserver* observer)
    : config_(&config), files_(&files), observer_(observer) {
  if (config.disk_count == 0) {
    throw std::invalid_argument("ArrayContext: disk_count == 0");
  }
  idle_timer_.resize(config.disk_count);
  h_policy_transitions_ = counters_.intern("sim.policy_transitions");
  disks_.reserve(config.disk_count);
  for (std::size_t i = 0; i < config.disk_count; ++i) {
    disks_.emplace_back(static_cast<DiskId>(i), config.disk_params,
                        config.initial_speed);
    if (config.seek_curve) disks_.back().set_seek_curve(*config.seek_curve);
  }
  dpm_.assign(config.disk_count, DpmConfig{});
  placement_.assign(files.size(), kInvalidDisk);
  epoch_counts_.assign(files.size(), 0);
  if (config.seek_curve) {
    file_cylinder_.assign(files.size(), 0);
    alloc_cursor_.assign(config.disk_count, 0);
  }
}

void ArrayContext::assign_cylinders(FileId f, DiskId d) {
  if (file_cylinder_.empty()) return;
  const auto& geometry = config_->seek_curve->geometry();
  const Bytes per_cylinder =
      std::max<Bytes>(1, config_->disk_params.capacity / geometry.cylinders);
  const Bytes size = files_->by_id(f).size;
  const auto span = static_cast<Cylinder>(
      std::max<Bytes>(1, (size + per_cylinder - 1) / per_cylinder));
  file_cylinder_[f] = alloc_cursor_[d] % geometry.cylinders;
  alloc_cursor_[d] = (alloc_cursor_[d] + span) % geometry.cylinders;
}

void ArrayContext::place(FileId f, DiskId d) {
  if (f >= placement_.size()) {
    throw std::invalid_argument("ArrayContext::place: unknown file");
  }
  if (d >= disks_.size()) {
    throw std::invalid_argument("ArrayContext::place: unknown disk");
  }
  placement_[f] = d;
  assign_cylinders(f, d);
}

void ArrayContext::migrate(FileId f, DiskId to) {
  if (f >= placement_.size() || to >= disks_.size()) {
    throw std::invalid_argument("ArrayContext::migrate: bad arguments");
  }
  const DiskId from = placement_[f];
  if (from == kInvalidDisk) {
    throw std::logic_error("ArrayContext::migrate: file never placed");
  }
  if (from == to) return;
  const Bytes bytes = files_->by_id(f).size;
  Joules energy_before{0.0};
  if (observer_ != nullptr) {
    energy_before = disks_[from].ledger().energy + disks_[to].ledger().energy;
  }
  disks_[from].serve(now_, bytes, /*internal=*/true);
  disks_[to].serve(now_, bytes, /*internal=*/true);
  cancel_idle_check(from);
  cancel_idle_check(to);
  placement_[f] = to;
  assign_cylinders(f, to);
  ++migrations_;
  migration_bytes_ += bytes;
  if (observer_ != nullptr) {
    const Joules energy =
        disks_[from].ledger().energy + disks_[to].ledger().energy -
        energy_before;
    observer_->on_migration(MigrationEvent{now_, f, from, to, bytes, energy});
  }
}

void ArrayContext::background_copy(DiskId from, DiskId to, Bytes bytes) {
  if (from >= disks_.size() || to >= disks_.size()) {
    throw std::invalid_argument("ArrayContext::background_copy: bad disk");
  }
  Joules energy_before{0.0};
  if (observer_ != nullptr) {
    energy_before = disks_[from].ledger().energy;
    if (from != to) energy_before += disks_[to].ledger().energy;
  }
  disks_[from].serve(now_, bytes, /*internal=*/true);
  if (from != to) disks_[to].serve(now_, bytes, /*internal=*/true);
  cancel_idle_check(from);
  if (from != to) cancel_idle_check(to);
  if (observer_ != nullptr) {
    Joules energy = disks_[from].ledger().energy - energy_before;
    if (from != to) energy += disks_[to].ledger().energy;
    observer_->on_background_copy(
        BackgroundCopyEvent{now_, from, to, bytes, energy});
  }
}

void ArrayContext::set_initial_speed(DiskId d, DiskSpeed speed) {
  if (d >= disks_.size()) {
    throw std::invalid_argument("ArrayContext::set_initial_speed: bad disk");
  }
  disks_[d].set_initial_speed(speed);
}

Seconds ArrayContext::request_transition(DiskId d, DiskSpeed target) {
  if (d >= disks_.size()) {
    throw std::invalid_argument("ArrayContext::request_transition: bad disk");
  }
  return change_speed(d, target, TransitionCause::kPolicy,
                      h_policy_transitions_);
}

Seconds ArrayContext::change_speed(DiskId d, DiskSpeed target,
                                   TransitionCause cause,
                                   CounterRegistry::Handle counter) {
  Disk& disk = disks_[d];
  const DiskSpeed from = disk.speed();
  const Joules energy_before =
      observer_ != nullptr ? disk.ledger().energy : Joules{0.0};
  const Seconds finish = disk.transition(now_, target);
  if (from == target) return finish;
  counters_.add(counter);
  if (observer_ != nullptr) {
    observer_->on_speed_transition(SpeedTransitionEvent{
        now_, finish, d, from, target, cause,
        disk.ledger().energy - energy_before});
    observer_->on_disk_state_change(
        DiskStateChangeEvent{now_, d, power_state(from), power_state(target)});
  }
  return finish;
}

void ArrayContext::set_dpm(DiskId d, const DpmConfig& config) {
  if (d >= dpm_.size()) {
    throw std::invalid_argument("ArrayContext::set_dpm: bad disk");
  }
  dpm_[d] = config;
}

void ArrayContext::set_idleness_threshold(DiskId d, Seconds h) {
  if (d >= dpm_.size()) {
    throw std::invalid_argument("ArrayContext::set_idleness_threshold: bad disk");
  }
  dpm_[d].idleness_threshold = h;
}

void ArrayContext::bump(std::string_view counter, std::uint64_t by) {
  counters_.add(counter, by);
}

void ArrayContext::schedule_idle_check(DiskId d, Seconds completion) {
  if (!dpm_[d].spin_down_when_idle) return;
  const Seconds deadline = completion + dpm_[d].idleness_threshold;
  if (deadline < wake_hint_) wake_hint_ = deadline;
  idle_timer_.arm(d, deadline, idle_seq_++);
}

}  // namespace pr
