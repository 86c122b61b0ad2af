// epoch_driver.h — the simulator's epoch clock and its feedback-control
// window.
//
// The paper's READ runs on one clock: every epoch P it re-ranks files and
// moves them between zones (Fig. 6, "for each epoch P"). EpochDriver owns
// that clock: the boundary stride, the epoch index, the boundary work
// (Policy::on_epoch, the sim.epochs counter, the Debug ledger-conservation
// check, EpochEndEvent) and the per-epoch access-count reset. Boundaries
// are a lazy barrier: fire_until(t) fires every boundary <= t ahead of an
// event or arrival at t, then stands the clock at t.
//
// The online controllers (control/control_loop.h) close their loop at the
// same boundaries. ControlWindow owns the ControlLoop and the epoch's
// observed window: admission at dispatch, the per-request latency fold,
// and the boundary step that folds the window into the loop and actuates
// its decision. The simulator builds one only when SimConfig::control is
// enabled. A control-free run passes NoControl instead: its admission
// always succeeds and its fold and step are empty, so the request loop,
// templated on the window type, holds no window and tests no control
// state on that path.
//
// Order at one boundary: on_epoch, then EpochEndEvent, then the window's
// step (ControlUpdateEvent follows EpochEndEvent), then the count reset.
#pragma once

#include <algorithm>
#include <cstdint>

#include "control/control_loop.h"
#include "sim/array_sim.h"

namespace pr {

class EpochDriver {
 public:
  /// Throws std::invalid_argument unless `epoch` is finite and > 0 (a zero
  /// or negative stride would never pass an arrival; NaN would never fire).
  EpochDriver(Seconds epoch, ArrayContext& ctx, Policy& policy);

  /// The next boundary to fire; inside a window's step, the one firing.
  [[nodiscard]] Seconds next_boundary() const { return next_; }
  /// The current stride.
  [[nodiscard]] Seconds length() const { return length_; }
  /// Index of next_boundary() (0 for the first boundary).
  [[nodiscard]] std::uint64_t index() const { return index_; }
  /// Change the stride. Called from a window's step, it places the
  /// boundary after the one being fired at that boundary + `length`.
  void set_length(Seconds length) { length_ = length; }

  /// Count one arrival of `file` in the current epoch: per-epoch popularity
  /// tracking (Fig. 6 line 9, the "Access Tracking Manager"). Policies
  /// read the counts through ArrayContext; the next boundary resets them.
  void record(FileId file) {
    ++ctx_.epoch_counts_[file];
    ++ctx_.epoch_requests_;
  }

  /// Fire every boundary <= t, each with `window`'s step between its
  /// EpochEndEvent and its count reset, then stand the clock at `t`.
  template <class Window>
  void fire_until(Seconds t, Window& window) {
    while (next_ <= t) {
      open_boundary();
      window.step(*this, next_);
      close_boundary();
    }
    ctx_.now_ = t;
  }

 private:
  /// The boundary's epoch work, up to and including EpochEndEvent.
  void open_boundary();
  /// Advance the index, reset the epoch's counts, step to the next boundary.
  void close_boundary();

  ArrayContext& ctx_;
  Policy& policy_;
  Seconds length_;
  Seconds next_;
  std::uint64_t index_ = 0;
  CounterRegistry::Handle h_epochs_;
};

/// The window of a run with feedback control enabled.
class ControlWindow {
 public:
  /// Validates `config` (ControlLoop's constructor throws
  /// std::invalid_argument) and interns the six control.* counters.
  ControlWindow(const ControlConfig& config, ArrayContext& ctx,
                Policy& policy);

  /// Admission at dispatch: measure the request's disk's FCFS backlog (how
  /// long the request would wait before service begins), fold it into the
  /// epoch window, and, when an admission window is configured, shed the
  /// request when its backlog is strictly above the window instead of
  /// queueing it unboundedly. A shed request is recorded, not served: no
  /// response-time sample, no fold, no completion event, no after_serve
  /// (the epoch popularity bump stands: demand existed even if unmet, the
  /// same contract as a lost request).
  [[nodiscard]] bool admit(const Request& req, DiskId primary) {
    const double backlog = std::max(
        0.0, (ctx_.disks_[primary].ready_time() - req.arrival).value());
    if (shed_window_ > 0.0 && backlog > shed_window_) {
      ctx_.counters_.add(h_shed_);
      ++epoch_shed_;
      return false;
    }
    if (backlog > epoch_backlog_) epoch_backlog_ = backlog;
    return true;
  }

  /// Fold one served request's response time into the epoch window; called
  /// in arrival order, so the fold is deterministic.
  void fold(double response_s) {
    ++epoch_served_;
    epoch_rt_sum_ += response_s;
  }

  /// Close the epoch's window at `boundary`: fold the observed latency,
  /// energy and backlog into the ControlLoop, actuate its decisions (DPM
  /// idleness thresholds here, the hot-zone size through
  /// Policy::on_control, the epoch length through `epochs`' stride),
  /// announce the update to the observer and open the next window.
  void step(EpochDriver& epochs, Seconds boundary);

 private:
  ArrayContext& ctx_;
  Policy& policy_;
  ControlLoop loop_;
  double shed_window_;
  std::uint64_t epoch_served_ = 0;
  double epoch_rt_sum_ = 0.0;
  double epoch_backlog_ = 0.0;
  std::uint64_t epoch_shed_ = 0;
  Joules last_energy_{0.0};
  CounterRegistry::Handle h_updates_;
  CounterRegistry::Handle h_shed_;
  CounterRegistry::Handle h_h_scaled_;
  CounterRegistry::Handle h_hot_grows_;
  CounterRegistry::Handle h_hot_shrinks_;
  CounterRegistry::Handle h_epoch_scaled_;
};

/// The window of a control-free run: admits everything, folds nothing and
/// does no boundary work.
struct NoControl {
  static bool admit(const Request& /*req*/, DiskId /*primary*/) {
    return true;
  }
  static void fold(double /*response_s*/) {}
  static void step(EpochDriver& /*epochs*/, Seconds /*boundary*/) {}
};

}  // namespace pr
