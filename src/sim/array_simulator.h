// array_simulator.h — the simulator's private driver class, included only
// by sim/ sources (the public entry point is run_simulation in
// sim/array_sim.h). array_sim.cpp defines its request loop, templated on
// the control window (sim/epoch_driver.h), and its event dispatch.
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "fault/fault_state.h"
#include "redundancy/rebuild.h"
#include "redundancy/scheme.h"
#include "sim/array_sim.h"
#include "sim/epoch_driver.h"
#include "sim/planner.h"

namespace pr {

class ArraySimulator {
 public:
  ArraySimulator(const SimConfig& config, const FileSet& files,
                 RequestSource& source, Policy& policy, SimObserver* observer,
                 const FaultPlan* faults);

  /// Run to the end of the source; builds the control window only when
  /// SimConfig::control is enabled.
  SimResult run();

 private:
  /// The request loop over `window` (ControlWindow or NoControl).
  template <class Window>
  SimResult run_with(Window& window);

  /// Serve `bytes` of `file` on disk `d` (validated by the planner) at
  /// `arrival`, applying spin-up-to-serve. Returns completion.
  Seconds serve_on(DiskId d, Seconds arrival, Bytes bytes, FileId file);

  /// Book one recovered chunk of a surviving request: its counter and
  /// degraded events (a reconstruction also announces its fan-out).
  void book_degraded(const Request& req, const DegradedChunk& chunk);

  /// Parity bookkeeping at a fail-stop instant: count the failure as a
  /// data-loss event if it overlaps another failure the layout cannot
  /// survive (one event per new failure — the Markov model's absorbing
  /// transition), then start the paced background rebuild of everything
  /// placed on the disk.
  void on_parity_failure(Seconds at, DiskId disk);

  /// One internal rebuild serve on `d`: wake the disk if it is spun down
  /// (TransitionCause::kRebuild — the energy cost of staying protected),
  /// pay the transfer, and drop any pending idle check (the background-
  /// I/O precedent set by migrate/background_copy: no re-arm, the next
  /// foreground serve re-arms).
  void rebuild_io(DiskId d, Bytes bytes);

  /// Turn one due rebuild step into I/O: a read on each surviving stripe
  /// source plus the reconstructed write on the rebuilt disk (its ledger
  /// models the replacement spindle), all queued FCFS behind foreground
  /// traffic. A completing step returns the disk to service through the
  /// normal fault machinery — a synthetic kRecover at the same instant —
  /// so the observed downtime (DiskRecoverEvent) *is* the repair time.
  void run_rebuild_step(const RebuildScheduler::Step& step);

  /// Apply one plan event to the live FaultState; announce it (and bump
  /// the matching counter) only when it actually changed something —
  /// idempotent events stay invisible.
  void apply_fault(const FaultEvent& e);

  /// Which producer owns a deferred event.
  enum class Source : std::uint8_t { kFault, kRebuild, kIdle };

  struct Deferred {
    Seconds time;
    Source source;
  };

  /// The earliest pending deferred event over the three producers — the
  /// fault plan's cursor, the rebuild scheduler and the idle-timer heap.
  /// This is the one place the same-instant order is decided: fault →
  /// rebuild → idle (a later producer must be strictly earlier to win). A
  /// producer with nothing pending reports kNeverTime, so a subsystem that
  /// is not in use never wins and never costs more than this comparison.
  /// Not const: reading the idle heap's minimum settles its top.
  [[nodiscard]] Deferred next_deferred();

  /// Refresh the cached lower bound on the earliest pending deferred event
  /// or epoch boundary (see ArrayContext::wake_hint_). Called after every
  /// slow-path advance; schedule_idle_check lowers the hint in between.
  void recompute_wake_hint() {
    ctx_.wake_hint_ = std::min(epochs_.next_boundary(), next_deferred().time);
  }

  /// Advance simulated time to `t`: dispatch every deferred event due at or
  /// before `t` in next_deferred() order, each preceded by the epoch
  /// boundaries at or before its instant. Each event is claimed before that
  /// epoch work, so boundary work (a migration disarming an idle check)
  /// cannot retract an event that is already due. The caller fires the
  /// boundaries up to an arrival; the end of the run is not an event, so
  /// boundaries after the last deferred event never fire.
  template <class Window>
  void advance_until(Seconds t, Window& window);

  void validate_placement() const;
  void arm_initial_idle_checks();

  /// A live idle check for disk `d` fired now (every popped deadline is
  /// live: re-arming replaces a disk's slot in place): spin down if the
  /// disk has genuinely been idle past its (current) threshold.
  void handle_idle_check(DiskId d);

  void emit_run_start();
  void finalize(Seconds horizon);

  const SimConfig& config_;
  const FileSet& files_;
  RequestSource& source_;
  Policy& policy_;
  ArrayContext ctx_;
  /// The epoch clock; its stride moves only under an epoch controller.
  EpochDriver epochs_;
  /// The attached fault plan's events (empty on a fault-free run) and the
  /// index of the next unapplied one.
  std::span<const FaultEvent> fault_events_;
  std::size_t fault_cursor_ = 0;
  /// Live per-disk fault flags; all disks stay live and nominal on a
  /// fault-free run.
  FaultState faults_;
  /// Resolved redundancy seam: the config-owned parity scheme (wins) or
  /// the policy's copy-set scheme; nullptr = degraded requests are lost.
  std::unique_ptr<RedundancyScheme> owned_scheme_;
  RedundancyScheme* scheme_ = nullptr;
  /// Paced rebuilds in flight; configured only for a parity scheme with
  /// the engine on, and idle (kNeverTime) until a fail-stop starts one.
  RebuildScheduler rebuild_;
  /// The in-flight request's plan, reused across requests.
  RequestPlan plan_;
  /// Rebuild-step scratch (cleared before each use).
  std::vector<DiskId> scratch_sources_;
  /// Whether the in-flight request hit an injected slowdown (and the worst
  /// factor across its chunks); drives the kSlowed emission.
  bool request_slowed_ = false;
  double request_slowdown_ = 1.0;
  SimResult result_;
  /// Accumulator for the in-flight request's observer event (backlog,
  /// service-time and energy deltas across its chunks); only maintained
  /// while an observer is attached.
  RequestCompleteEvent pending_;

  // Interned core-counter handles (hot-path bumps are one vector add).
  CounterRegistry::Handle h_idle_checks_;
  CounterRegistry::Handle h_idle_deferred_;
  CounterRegistry::Handle h_spin_downs_;
  CounterRegistry::Handle h_spin_vetoed_;
  CounterRegistry::Handle h_spin_ups_;
  // Fault counters; interned (and thus reported) only when a non-empty
  // FaultPlan is attached.
  CounterRegistry::Handle h_faults_ = 0;
  CounterRegistry::Handle h_recovers_ = 0;
  CounterRegistry::Handle h_slowdowns_ = 0;
  CounterRegistry::Handle h_lost_ = 0;
  CounterRegistry::Handle h_redirected_ = 0;
  CounterRegistry::Handle h_slowed_ = 0;
  // Redundancy counters; interned only when a parity scheme is live under
  // an attached fault plan (the rebuild set only with the engine on).
  CounterRegistry::Handle h_reconstructed_ = 0;
  CounterRegistry::Handle h_data_loss_ = 0;
  CounterRegistry::Handle h_rebuild_steps_ = 0;
  CounterRegistry::Handle h_rebuild_wakeups_ = 0;
  CounterRegistry::Handle h_rebuilds_started_ = 0;
  CounterRegistry::Handle h_rebuilds_completed_ = 0;
  CounterRegistry::Handle h_rebuilds_aborted_ = 0;
};

}  // namespace pr
