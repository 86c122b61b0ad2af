// energy_auditor.h — an observer that checks the energy identity of
// obs/observer.h's RunEndEvent from the event stream alone. Shared by
// test_observer.cpp (one policy per run) and test_sim_fuzz.cpp (every
// subsystem combination).
#pragma once

#include "obs/observer.h"

namespace pr {

/// Sums the event-level energies that the RunEndEvent identity says add
/// up to the run's total. kSpinUpToServe deltas sit inside their
/// request's event and kRebuild deltas inside their step's
/// RebuildProgressEvent, so neither is counted again.
class EnergyAuditor final : public SimObserver {
 public:
  void on_request_complete(const RequestCompleteEvent& e) override {
    sum_ += e.energy.value();
  }
  void on_speed_transition(const SpeedTransitionEvent& e) override {
    if (e.cause != TransitionCause::kSpinUpToServe &&
        e.cause != TransitionCause::kRebuild) {
      sum_ += e.energy.value();
    }
  }
  void on_migration(const MigrationEvent& e) override {
    sum_ += e.energy.value();
  }
  void on_background_copy(const BackgroundCopyEvent& e) override {
    sum_ += e.energy.value();
  }
  void on_rebuild_progress(const RebuildProgressEvent& e) override {
    sum_ += e.energy.value();
  }
  void on_run_end(const RunEndEvent& e) override {
    sum_ += e.final_idle_energy.value();
    total_ = e.total_energy.value();
  }

  [[nodiscard]] double sum() const { return sum_; }
  [[nodiscard]] double total() const { return total_; }

 private:
  double sum_ = 0.0;
  double total_ = 0.0;
};

}  // namespace pr
