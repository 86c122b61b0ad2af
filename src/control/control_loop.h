// control_loop.h — the deterministic feedback controllers closing the
// loop from observed per-epoch telemetry back into policy knobs (ROADMAP
// "Adaptive control on the streaming substrate").
//
// Layering: control sits *below* the engine in the architecture DAG
// (tools/detlint/layers.ini), so this class never touches the simulator.
// It is a pure component — the simulator's ControlWindow
// (sim/epoch_driver.h) aggregates one ControlInputs window per epoch,
// calls update(), and actuates the returned ControlDecision itself
// (idleness thresholds via the DPM table, the hot-zone size via
// Policy::on_control, the epoch length via the epoch driver's stride).
// That inversion is what keeps every controller trivially deterministic:
// fixed-order scalar arithmetic over one input struct, no clocks, no
// state the simulator cannot replay.
//
// Oscillation control is two-layered and shared by all three
// controllers: a hysteresis dead band (errors within ±hysteresis of the
// setpoint are ignored and reset the streak) plus a persistence
// requirement (the error must leave the band in the *same direction* for
// `persistence` consecutive epochs before the knob moves). A load signal
// alternating direction every epoch therefore never moves a knob at the
// default persistence of 2 — pinned by tests/test_control.cpp.
#pragma once

#include <cstdint>

#include "control/control_config.h"

namespace pr {

/// One epoch's observed window, aggregated by the simulator.
struct ControlInputs {
  /// Length of the epoch that just closed, seconds.
  double epoch_s = 0.0;
  /// User requests served inside the epoch (shed/lost excluded).
  std::uint64_t requests = 0;
  /// Mean response time over those requests, seconds (0 when idle).
  double mean_rt_s = 0.0;
  /// Worst FCFS backlog seen at any dispatch inside the epoch, seconds.
  double max_backlog_s = 0.0;
  /// Ledger energy spent across the epoch, joules (all disks).
  double energy_j = 0.0;
  /// Requests shed by the admission window inside the epoch.
  std::uint64_t shed = 0;
};

/// What the controllers want changed; all fields are "hold" by default.
/// Scales are per-epoch multipliers — the simulator clamps the resulting
/// absolute values to the configured bounds at actuation time.
struct ControlDecision {
  /// Multiplier on every spin-down idleness threshold (1 = hold).
  double h_scale = 1.0;
  /// Hot-zone resize request: +1 grow, -1 shrink, 0 hold. Advisory — the
  /// policy's Policy::on_control applies its own guardrails and reports
  /// the delta actually taken.
  int hot_delta = 0;
  /// Multiplier on the epoch length (1 = hold).
  double epoch_scale = 1.0;

  [[nodiscard]] bool any() const {
    return h_scale != 1.0 || hot_delta != 0 || epoch_scale != 1.0;
  }
};

class ControlLoop {
 public:
  /// Validates the config (std::invalid_argument). The simulator builds a
  /// loop only for a run with control switched on.
  explicit ControlLoop(ControlConfig config);

  /// Fold one epoch window into the controllers and return the knob
  /// decision. Deterministic: same input sequence, same decisions.
  [[nodiscard]] ControlDecision update(const ControlInputs& in);

  [[nodiscard]] const ControlConfig& config() const { return config_; }

 private:
  /// Update a signed persistence streak with this epoch's direction and
  /// report whether the controller may act (|streak| >= persistence).
  [[nodiscard]] bool persists(int* streak, int direction) const;

  ControlConfig config_;
  int rt_streak_ = 0;
  int energy_streak_ = 0;
  int epoch_streak_ = 0;
};

}  // namespace pr
