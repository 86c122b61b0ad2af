// array_sim.h — the trace-driven disk-array simulator (paper §5.1: "an
// execution-driven simulator that models an array of 2-speed disks").
//
// Architecture: the simulator owns the *mechanisms* — FCFS disks, the
// file→disk placement table, dynamic power management (idleness-threshold
// spin-down, spin-up-to-serve), epoch bookkeeping, background migration
// I/O, and the energy/response-time ledgers. Energy-saving schemes (READ,
// MAID, PDC, ...) are Policy objects that own the *decisions*: where files
// live, which disk serves a request, what happens at epoch boundaries, and
// whether a proposed spin-down is allowed.
//
// Layout: this header is the public surface (SimConfig, ArrayContext,
// Policy, run_simulation). The engine's units sit behind it:
// sim/array_simulator.h (the private driver class; array_sim.cpp holds its
// request loop and event dispatch), sim/planner.h (the request planner),
// sim/epoch_driver.h (the epoch clock and the feedback-control window) and
// sim/idle_timer.h (the DPM idle-check heap).
//
// Determinism: arrivals are replayed in trace order; every request goes
// through one plan-then-book dispatch path — the request planner turns the
// policy's chunks into a plan against the live fault state (a non-striped
// route() is a one-chunk stripe), and the simulator admits, books and
// serves that plan. Policies receive callbacks at well-defined points
// only. Deferred events come from three producers — the fault plan's
// cursor, the rebuild scheduler and the per-disk idle-timer heap (FIFO
// among equal deadlines) — merged by one function in a fixed order. At one
// instant τ: epoch boundaries <= τ, then fault events, then rebuild steps,
// then DPM idle checks, then the arrival. Epochs are a lazy barrier: a
// boundary fires only ahead of an event or arrival, so a boundary after the
// last arrival with no later deferred event before the horizon never fires.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "control/control_config.h"
#include "disk/disk.h"
#include "disk/telemetry.h"
#include "fault/fault_plan.h"
#include "obs/counter_registry.h"
#include "obs/observer.h"
#include "redundancy/redundancy_config.h"
#include "sim/dpm.h"
#include "sim/idle_timer.h"
#include "sim/metrics.h"
#include "trace/request.h"
#include "trace/request_source.h"
#include "workload/fileset.h"

namespace pr {

constexpr DiskId kInvalidDisk = ~DiskId{0};

struct SimConfig {
  TwoSpeedDiskParams disk_params;
  std::size_t disk_count = 8;
  /// Epoch length P for the policies' periodic redistribution (Fig. 6).
  /// Must be finite and > 0 (run_simulation throws std::invalid_argument).
  Seconds epoch{3600.0};
  /// How per-disk operating temperature is attributed for PRESS.
  TemperatureAttribution temperature_attribution =
      TemperatureAttribution::kTimeWeighted;
  /// Initial speed for every disk (policies typically override per zone in
  /// initialize()).
  DiskSpeed initial_speed = DiskSpeed::kHigh;
  /// Optional DiskSim-style positional fidelity: when set, files are laid
  /// out contiguously per disk in placement order and every user request
  /// pays the real head-travel seek from this curve instead of the
  /// average seek (background migration I/O keeps average-cost seeks).
  std::optional<SeekCurve> seek_curve;
  /// Array-level redundancy organization (redundancy/redundancy_config.h).
  /// kNone (default) preserves today's behavior byte-for-byte: degraded
  /// requests fall back to the policy's own copy set or are lost. A parity
  /// kind adds reconstruction reads for degraded requests and a paced
  /// background rebuild of failed disks; it takes precedence over
  /// Policy::redundancy().
  RedundancyConfig redundancy;
  /// Feedback control (control/control_config.h). Disabled (default), the
  /// simulator builds no control window: fixed epoch length, fixed DPM
  /// thresholds, no admission window, no control.* counters, and the other
  /// knobs are neither read nor validated. Enabled, it builds a
  /// ControlWindow (sim/epoch_driver.h) that folds one telemetry window
  /// per epoch into a ControlLoop and actuates its knob decisions at the
  /// epoch boundaries.
  ControlConfig control;
};

class Policy;

/// The policy-facing view of the running simulation.
class ArrayContext {
 public:
  /// `observer` (optional) receives the hooks the context and the engine
  /// emit; the simulator passes the run's observer.
  ArrayContext(const SimConfig& config, const FileSet& files,
               SimObserver* observer = nullptr);

  // --- observation ---------------------------------------------------
  [[nodiscard]] std::size_t disk_count() const { return disks_.size(); }
  [[nodiscard]] const Disk& disk(DiskId d) const { return disks_.at(d); }
  [[nodiscard]] Seconds now() const { return now_; }
  [[nodiscard]] const FileSet& files() const { return *files_; }
  [[nodiscard]] const SimConfig& config() const { return *config_; }
  [[nodiscard]] DiskId location(FileId f) const { return placement_.at(f); }
  /// Cylinder of the file on its current disk (positional mode only;
  /// returns 0 otherwise).
  [[nodiscard]] Cylinder cylinder_of(FileId f) const {
    return f < file_cylinder_.size() ? file_cylinder_[f] : 0;
  }
  [[nodiscard]] bool positioned_io() const {
    return config_->seek_curve.has_value();
  }
  /// Requests per file within the current epoch (reset at each boundary).
  [[nodiscard]] const std::vector<std::uint64_t>& epoch_access_counts()
      const {
    return epoch_counts_;
  }
  [[nodiscard]] std::uint64_t epoch_requests() const {
    return epoch_requests_;
  }

  // --- placement & data movement --------------------------------------
  /// Initial placement (no I/O cost); each file must be placed exactly
  /// once before the run starts.
  void place(FileId f, DiskId d);
  /// Move a file: background read on its current disk + write on `to`;
  /// placement is updated. No-op if already there.
  void migrate(FileId f, DiskId to);
  /// Background copy traffic that does not change placement (MAID cache
  /// fills, replication): read on `from`, write on `to`.
  void background_copy(DiskId from, DiskId to, Bytes bytes);

  // --- speed & DPM -----------------------------------------------------
  /// Free, uncounted speed assignment; only valid during initialize()
  /// (see Disk::set_initial_speed).
  void set_initial_speed(DiskId d, DiskSpeed speed);
  /// Explicit speed change (zone reconfiguration); returns finish time.
  Seconds request_transition(DiskId d, DiskSpeed target);
  [[nodiscard]] const DpmConfig& dpm(DiskId d) const { return dpm_.at(d); }
  void set_dpm(DiskId d, const DpmConfig& config);
  /// Adjust only the idleness threshold (READ's adaptive doubling).
  void set_idleness_threshold(DiskId d, Seconds h);

  // --- diagnostics ------------------------------------------------------
  /// Bump a policy-defined counter (reported in SimResult::counters).
  /// Interns the name on first use — fine for cold paths; per-request
  /// counters should use the handle overload below.
  void bump(std::string_view counter, std::uint64_t by = 1);
  /// Hot-path bump through a handle pre-interned in initialize() (one
  /// vector add, no string hashing).
  void bump(CounterRegistry::Handle counter, std::uint64_t by = 1) {
    counters_.add(counter, by);
  }
  /// The run's counter registry — policies with hot counters intern a
  /// handle once in initialize() and bump through it.
  [[nodiscard]] CounterRegistry& counters() { return counters_; }

 private:
  // The engine's own units (sim/array_simulator.h, sim/epoch_driver.h).
  friend class ArraySimulator;
  friend class EpochDriver;
  friend class ControlWindow;

  /// (Re-)arm the idle-check deadline for `d` at completion + H, in place
  /// in the disk's timer slot.
  void schedule_idle_check(DiskId d, Seconds completion);
  /// Disarm any pending idle check for `d`. Called for disks receiving
  /// background I/O (migrations, cache fills) that does not go through
  /// the per-request re-arm.
  void cancel_idle_check(DiskId d) { idle_timer_.disarm(d); }
  /// Allocate a contiguous cylinder range for `f` on disk `d` and record
  /// its start cylinder (positional mode only).
  void assign_cylinders(FileId f, DiskId d);
  /// The one speed-change path: transition `d` to `target` at now(); when
  /// the speed actually changes, bump `counter` and announce the transition
  /// and its power-state change to the observer, carrying the ledger's
  /// energy delta across the operation. Returns the finish time.
  Seconds change_speed(DiskId d, DiskSpeed target, TransitionCause cause,
                       CounterRegistry::Handle counter);

  const SimConfig* config_;
  const FileSet* files_;
  std::vector<Disk> disks_;
  std::vector<DpmConfig> dpm_;
  std::vector<DiskId> placement_;
  std::vector<Cylinder> file_cylinder_;   // positional mode only
  std::vector<Cylinder> alloc_cursor_;    // per-disk next free cylinder
  std::vector<std::uint64_t> epoch_counts_;
  std::uint64_t epoch_requests_ = 0;
  Seconds now_{0.0};
  /// DPM idle checks: one armed deadline per disk, re-armed in place.
  IdleTimerHeap idle_timer_;
  /// Arm-order counter for the timer heap's FIFO tie-breaking:
  /// simultaneous deadlines fire in the order they were armed.
  std::uint64_t idle_seq_ = 0;
  /// Batched-dispatch fast path: a lower bound on the time of the
  /// earliest pending deferred event or epoch boundary. While an arrival
  /// stays strictly below the hint the simulator skips the event merge
  /// entirely — one comparison per request. Arming an idle check lowers
  /// it; the simulator recomputes it from the merge after every slow-path
  /// advance (cancellations only raise the true minimum, so a stale-low
  /// hint is conservative, never wrong).
  Seconds wake_hint_{0.0};
  std::uint64_t migrations_ = 0;
  Bytes migration_bytes_ = 0;
  CounterRegistry counters_;
  /// Pre-interned handle for request_transition's hot-path bump.
  CounterRegistry::Handle h_policy_transitions_ = 0;
  /// Attached observer (nullptr = detached; every emission point guards on
  /// this, which is the whole zero-cost story).
  SimObserver* observer_ = nullptr;
};

/// One piece of a striped request: `bytes` served by `disk`.
struct StripeChunk {
  DiskId disk = kInvalidDisk;
  Bytes bytes = 0;
};

/// The redundancy seam (redundancy/scheme.h): how degraded requests are
/// still served — a live copy, parity reconstruction, or lost.
class RedundancyScheme;

/// The control seam (control/control_loop.h): what the epoch-boundary
/// controllers decided. Forward-declared — only policies that implement
/// on_control need the full type.
struct ControlDecision;

/// An energy-saving scheme under evaluation.
class Policy {
 public:
  virtual ~Policy() = default;

  [[nodiscard]] virtual std::string name() const = 0;

  /// Place every file, set initial speeds and DPM knobs.
  virtual void initialize(ArrayContext& ctx) = 0;

  /// Pick the disk that serves `req` (usually location(req.file); MAID
  /// may answer from a cache disk).
  virtual DiskId route(ArrayContext& ctx, const Request& req) = 0;

  /// Striping support (paper §6 future work / RAID-0 extension): when
  /// this returns true the simulator calls stripe() instead of route().
  /// Either way the request is one stripe (route() gives one chunk):
  /// every chunk is served in parallel on its disk, and the request
  /// completes when the slowest chunk finishes.
  [[nodiscard]] virtual bool striped() const { return false; }

  /// Decompose `req` into per-disk chunks (non-empty, bytes summing to
  /// req.size). Only called when striped() is true.
  virtual std::vector<StripeChunk> stripe(ArrayContext& ctx,
                                          const Request& req) {
    return {StripeChunk{route(ctx, req), req.size}};
  }

  /// Called after `req` was served by `d` (completion already ledgered) —
  /// cache management, copy triggering, etc. `d` is the primary chunk's
  /// disk, or the live copy a degraded read redirected it to.
  virtual void after_serve(ArrayContext& ctx, const Request& req, DiskId d) {
    (void)ctx;
    (void)req;
    (void)d;
  }

  /// Epoch boundary (Fig. 6's "for each epoch P"): re-rank, migrate,
  /// adapt thresholds. `now` is the boundary instant.
  virtual void on_epoch(ArrayContext& ctx, Seconds now) {
    (void)ctx;
    (void)now;
  }

  /// Control-loop actuation seam: on a control-enabled run whose energy
  /// controller asked for a hot-zone resize (decision.hot_delta != 0),
  /// the simulator forwards the decision here at the epoch boundary,
  /// after on_epoch. The policy applies its own guardrails (e.g. the
  /// online θ̂ skew estimate bounding how many hot disks the workload
  /// justifies) and returns the signed resize it actually took — 0 means
  /// refused, or unsupported (the default for policies without a
  /// resizable hot zone). Never called when control is disabled.
  virtual int on_control(ArrayContext& ctx, const ControlDecision& decision,
                         Seconds now) {
    (void)ctx;
    (void)decision;
    (void)now;
    return 0;
  }

  /// Veto hook for DPM spin-downs (READ's transition cap).
  virtual bool allow_spin_down(ArrayContext& ctx, DiskId d, Seconds now) {
    (void)ctx;
    (void)d;
    (void)now;
    return true;
  }

  /// The redundancy scheme backing this policy's own copy set (replica
  /// sets, the MAID cache) — the planner consults it when a chunk lands on
  /// a failed disk and SimConfig::redundancy is kNone (a configured parity
  /// scheme takes precedence). Return nullptr (the default) when
  /// the policy maintains no redundant copies: degraded requests are then
  /// recorded as lost (RequestDegradedEvent kLost, excluded from
  /// response-time stats). Only consulted while a FaultPlan with events
  /// is attached. The returned pointer must stay valid for the policy's
  /// lifetime (policies typically hold the scheme as a member).
  [[nodiscard]] virtual RedundancyScheme* redundancy() { return nullptr; }
};

/// Drive `policy` over the requests `source` produces, against an array
/// built from `config`. This is the primary entry point: the simulator
/// *pulls* one request at a time (bounded-memory ingestion, structural
/// backpressure) and validates incrementally — arrivals must be finite
/// and non-decreasing and every file must be in `files`, or it throws the
/// std::invalid_argument the materialized path throws ("run_simulation:
/// trace has a non-finite arrival" / "... trace is not sorted" / "...
/// references unknown file"), at the first request that violates one;
/// within a request they rank in that order. std::logic_error on policy
/// contract violations (unplaced file, bad route target).
///
/// `observer` (optional) receives the hook stream described in
/// obs/observer.h; pass nullptr for the zero-overhead fast path. Use
/// ObserverList to attach several observers, or the SimulationSession
/// builder (core/session.h) for the high-level API.
/// `faults` (optional) attaches a fault-injection plan (fault/fault_plan.h):
/// its events are applied in time order, merged with the rebuild steps and
/// DPM idle checks; at one instant the order is epoch work → fault events →
/// rebuild steps → idle checks → the arrival (see the file comment).
/// nullptr or an empty plan is the fault-free run. Throws
/// std::invalid_argument if the plan targets a disk outside the array, or
/// if SimConfig::redundancy is unsatisfiable on the array (see
/// redundancy/scheme.h validate_redundancy).
[[nodiscard]] SimResult run_simulation(const SimConfig& config,
                                       const FileSet& files,
                                       RequestSource& source, Policy& policy,
                                       SimObserver* observer = nullptr,
                                       const FaultPlan* faults = nullptr);

/// Materialized-trace adapter: validate `trace` up front (so contract
/// errors surface before the policy initializes, exactly as before the
/// streaming redesign) and replay it through a TraceSource. Byte-identical
/// to the historical vector path — the goldens pin this. The errors rank
/// by kind over the whole trace: a non-finite arrival anywhere, then an
/// inversion anywhere, then an unknown file id.
[[nodiscard]] SimResult run_simulation(const SimConfig& config,
                                       const FileSet& files,
                                       const Trace& trace, Policy& policy,
                                       SimObserver* observer = nullptr,
                                       const FaultPlan* faults = nullptr);

}  // namespace pr
