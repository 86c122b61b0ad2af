// control_config.h — knobs for the feedback-control subsystem (ROADMAP
// "Adaptive control on the streaming substrate"; Behzadnia et al. in
// PAPERS.md is the model). The paper fixes H, the hot-zone size k and the
// epoch length P offline; ControlConfig declares which of those knobs a
// run may adjust *online* from observed per-epoch telemetry, and within
// what bounds. Plain scalars only: this header is the bottom of the
// control layer and is embedded by value in SimConfig.
//
// Every controller is off by default; a default-constructed (or
// enabled=false) config is the byte-identical no-control path.
#pragma once

#include <cstdint>

namespace pr {

struct ControlConfig {
  /// Master switch, read only by the engine: when true the simulator
  /// builds a control window (and with it a ControlLoop, which validates
  /// the knobs below). When false it builds none, so it neither aggregates
  /// epoch windows nor interns any control.* counter, and output is
  /// byte-identical to a build without the control subsystem.
  bool enabled = false;

  // --- target-latency proportional controller (knob: spin-down H) ------
  /// Mean response-time target per epoch, milliseconds; 0 disables the
  /// latency controller. Epochs slower than the target raise the DPM
  /// idleness thresholds (fewer spin-downs, better latency); faster
  /// epochs lower them (more spin-downs, better energy).
  double target_rt_ms = 0.0;
  /// Proportional gain: relative threshold step per unit of relative
  /// latency error (step is clamped by max_step).
  double gain = 0.5;
  /// Hysteresis dead band as a fraction of the setpoint: errors within
  /// ±hysteresis produce no action and reset the persistence streak.
  double hysteresis = 0.25;
  /// Consecutive same-direction out-of-band epochs required before any
  /// controller acts (>= 1). The default 2 makes a load signal that
  /// alternates direction every epoch (a square wave at the epoch
  /// frequency) structurally incapable of moving a knob.
  std::uint32_t persistence = 2;
  /// Largest multiplicative knob change per epoch (> 1).
  double max_step = 2.0;
  /// Clamp for adjusted idleness thresholds, seconds.
  double h_min_s = 1.0;
  double h_max_s = 3600.0;

  // --- energy-budget cap-spend controller (knob: hot-zone size k) ------
  /// Average power budget in watts (joules per simulated second); 0
  /// disables. Epochs spending above budget shrink the hot zone by one
  /// disk, epochs with spare budget grow it — subject to the policy's
  /// θ̂ guardrail (Policy::on_control may refuse or clamp the resize).
  double energy_budget_w = 0.0;

  // --- backlog controller (knob: epoch length P) -----------------------
  /// When true, sustained backlog pressure (shed requests, or queueing
  /// beyond half the reference window) halves the epoch length so
  /// re-ranking reacts faster; sustained calm doubles it back, within
  /// [epoch_min_s, epoch_max_s]. The reference window is admit_window_s
  /// when set, else 4 × target_rt_ms.
  bool adapt_epoch = false;
  double epoch_min_s = 60.0;
  double epoch_max_s = 14400.0;

  // --- admission window (load shedding) --------------------------------
  /// Bounded admission: a request whose routed disk is already backlogged
  /// by more than this many seconds is shed (counted under
  /// control.shed_requests, never served) instead of stretching the FCFS
  /// queue without bound. 0 disables shedding.
  double admit_window_s = 0.0;
};

}  // namespace pr
