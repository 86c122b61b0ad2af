// fault_state.h — the live per-disk fault flags. The simulator owns one
// FaultState and applies FaultPlan events to it in time order; serves read
// slowdown(), and the request planner (sim/planner.h) and the redundancy
// schemes (redundancy/scheme.h) take it explicitly to find failed disks.
#pragma once

#include <cstdint>
#include <vector>

#include "fault/fault_plan.h"

namespace pr {

class FaultState {
 public:
  /// What applying one plan event did (drives counters and observer
  /// emissions — a no-op apply must stay invisible).
  struct ApplyResult {
    /// False when the event was idempotently ignored (fail on a failed
    /// disk, recover on a live one, slowdown to the current factor).
    bool changed = false;
    /// For an applied kRecover: how long the disk was down.
    Seconds downtime{0.0};
  };

  void resize(std::size_t disk_count) {
    failed_.assign(disk_count, 0);
    fail_since_.assign(disk_count, Seconds{0.0});
    slowdown_.assign(disk_count, 1.0);
    failed_count_ = 0;
  }

  [[nodiscard]] bool failed(DiskId d) const {
    return d < failed_.size() && failed_[d] != 0;
  }
  /// Service inflation multiplier currently in force (1 = nominal).
  [[nodiscard]] double slowdown(DiskId d) const {
    return d < slowdown_.size() ? slowdown_[d] : 1.0;
  }
  /// Disks currently failed — O(1), so a fault-free run's per-request
  /// "any chunk on a failed disk?" test is one comparison.
  [[nodiscard]] std::size_t failed_count() const { return failed_count_; }

  ApplyResult apply(const FaultEvent& e) {
    ApplyResult r;
    if (e.disk >= failed_.size()) return r;
    switch (e.kind) {
      case FaultKind::kFail:
        if (failed_[e.disk] != 0) return r;
        failed_[e.disk] = 1;
        ++failed_count_;
        fail_since_[e.disk] = e.time;
        r.changed = true;
        break;
      case FaultKind::kRecover:
        if (failed_[e.disk] == 0) return r;
        failed_[e.disk] = 0;
        --failed_count_;
        slowdown_[e.disk] = 1.0;
        r.downtime = e.time - fail_since_[e.disk];
        r.changed = true;
        break;
      case FaultKind::kSlowdown:
        if (slowdown_[e.disk] == e.factor) return r;
        slowdown_[e.disk] = e.factor;
        r.changed = true;
        break;
    }
    return r;
  }

 private:
  std::vector<std::uint8_t> failed_;
  std::vector<Seconds> fail_since_;
  std::vector<double> slowdown_;
  std::size_t failed_count_ = 0;
};

}  // namespace pr
