// observer.h — the simulator's instrumentation spine. Every interesting
// moment in a run (a request completing, a disk changing speed, an epoch
// boundary, a file migration) is announced to an optional SimObserver;
// when none is attached the simulator pays a single null-pointer test per
// emission point (micro_benchmarks' BM_SimulationThroughput vs
// BM_SimulationWithTimeSeries, and prbench's read_day vs jsonl_telemetry,
// measure what attaching costs).
//
// Ordering contract (all events carry the simulated time they occurred):
//   * Events are emitted in non-decreasing time order, matching the
//     simulator's deterministic event order — same seed, same stream.
//   * Within one instant: epoch-boundary work precedes arrivals at that
//     instant, so any migrations fired by Policy::on_epoch come first,
//     then the EpochEndEvent that closes the epoch, then request events.
//   * For one request: spin-up transition/state-change events precede its
//     RequestCompleteEvent; Policy::after_serve side effects (cache fills,
//     copies) come after it.
//   * Injected fault events (DiskFailEvent / DiskRecoverEvent) follow any
//     epoch work at their instant and precede DPM events and request
//     events at the same instant. A request's RequestDegradedEvent(s)
//     precede its RequestCompleteEvent (redirected before slowed); a lost
//     request emits only RequestDegradedEvent — no completion.
//   * Rebuild steps (RebuildProgress/Complete, and the DiskRecoverEvent a
//     completion triggers) fall between fault events and DPM events at
//     one instant: epoch work → fault events → rebuild steps → DPM idle
//     checks. A StripeReconstructEvent precedes the degraded request's
//     RequestDegradedEvent(kReconstructed).
#pragma once

#include <cstdint>
#include <vector>

#include "disk/disk.h"
#include "trace/request.h"
#include "util/units.h"

namespace pr {

/// Why a speed transition was initiated.
enum class TransitionCause : std::uint8_t {
  /// DPM idleness-threshold spin-down (Fig. 6's "conserve energy when
  /// idle for H seconds").
  kDpmIdle = 0,
  /// Promotion of a low-speed disk to serve arriving I/O (spin-up-to-serve
  /// or DRPM-style backlog promotion).
  kSpinUpToServe = 1,
  /// Explicit Policy request_transition() (zone reconfiguration).
  kPolicy = 2,
  /// A spun-down disk woken to carry rebuild I/O (source reads or the
  /// reconstructed writes) — the reliability-vs-energy tension made
  /// visible in the transition stream.
  kRebuild = 3,
};

[[nodiscard]] constexpr const char* to_string(TransitionCause c) {
  switch (c) {
    case TransitionCause::kDpmIdle: return "dpm_idle";
    case TransitionCause::kSpinUpToServe: return "spin_up_to_serve";
    case TransitionCause::kPolicy: return "policy";
    case TransitionCause::kRebuild: return "rebuild";
  }
  return "?";
}

/// Coarse per-disk power state derived from the commanded speed. Distinct
/// from SpeedTransitionEvent so downstream consumers that only care about
/// state occupancy (reliability interval analyses) need not model the
/// mechanics.
enum class DiskPowerState : std::uint8_t { kLowPower = 0, kActive = 1 };

[[nodiscard]] constexpr const char* to_string(DiskPowerState s) {
  return s == DiskPowerState::kLowPower ? "low_power" : "active";
}

[[nodiscard]] constexpr DiskPowerState power_state(DiskSpeed s) {
  return s == DiskSpeed::kHigh ? DiskPowerState::kActive
                               : DiskPowerState::kLowPower;
}

/// Fired once, after Policy::initialize() placed every file and chose the
/// per-disk starting speeds, before the first arrival is replayed.
struct RunStartEvent {
  std::size_t disk_count = 0;
  std::size_t file_count = 0;
  Seconds epoch{};
  /// Speed each disk starts the run in (index = disk id).
  std::vector<DiskSpeed> initial_speeds;
};

/// Fired once per served user request, after its completion time is known
/// and before Policy::after_serve runs.
struct RequestCompleteEvent {
  Seconds arrival{};
  Seconds completion{};
  FileId file = kInvalidFile;
  /// Primary serving disk: the first chunk's disk, or the live copy it
  /// was redirected to when that disk had failed.
  DiskId disk = 0;
  Bytes bytes = 0;
  /// Seconds of already-queued work at the serving disk(s) on arrival —
  /// the simulator's queue-depth proxy (FCFS backlog, max across chunks).
  Seconds backlog{};
  /// Busy-time the request added across its serving disk(s).
  Seconds service_time{};
  /// Disk-ledger energy delta across the operation. Includes the idle
  /// energy lazily accounted since each disk's previous activity, so the
  /// sum over all events plus the final-idle tail equals total energy.
  Joules energy{};
  /// Number of per-disk chunks (1 unless the policy stripes).
  std::uint32_t stripe_chunks = 1;

  [[nodiscard]] Seconds response_time() const { return completion - arrival; }
};

/// Fired whenever a disk actually changes commanded speed (no-op
/// transitions to the current speed are not reported).
struct SpeedTransitionEvent {
  /// When the transition was requested (it begins after queued work).
  Seconds time{};
  /// When the disk is back in service at the new speed.
  Seconds finish{};
  DiskId disk = 0;
  DiskSpeed from = DiskSpeed::kHigh;
  DiskSpeed to = DiskSpeed::kHigh;
  TransitionCause cause = TransitionCause::kPolicy;
  /// Disk-ledger energy delta across the transition operation: the lump
  /// transition energy plus idle lazily accounted since the disk's
  /// previous activity. For kSpinUpToServe this delta is *also* inside
  /// the enclosing request's RequestCompleteEvent::energy — the
  /// conservation identity (see RunEndEvent) sums transition energies
  /// over non-serve causes only. Not serialized to JSONL (schema v1 is
  /// frozen byte-for-byte).
  Joules energy{};
};

/// Fired alongside SpeedTransitionEvent with the derived power state.
struct DiskStateChangeEvent {
  Seconds time{};
  DiskId disk = 0;
  DiskPowerState from = DiskPowerState::kActive;
  DiskPowerState to = DiskPowerState::kActive;
};

/// Fired at each epoch boundary, after Policy::on_epoch ran and before the
/// per-epoch access counts reset.
struct EpochEndEvent {
  Seconds time{};
  /// 0-based epoch number (epoch k covers (k·P, (k+1)·P]).
  std::uint64_t index = 0;
  /// User requests that arrived within the closing epoch.
  std::uint64_t requests = 0;
};

/// Fired for every ArrayContext::migrate that moved a file.
struct MigrationEvent {
  Seconds time{};
  FileId file = kInvalidFile;
  DiskId from = 0;
  DiskId to = 0;
  Bytes bytes = 0;
  /// Ledger energy delta across the migration's two internal serves
  /// (incl. idle lazily accounted on both disks). Not serialized to JSONL.
  Joules energy{};
};

/// Fired for every ArrayContext::background_copy (MAID cache fills,
/// replica creation) — internal I/O that is otherwise invisible to
/// observers, which the energy-conservation identity needs. Off by
/// default in JsonlTraceWriter (schema v1 is frozen).
struct BackgroundCopyEvent {
  Seconds time{};
  DiskId from = 0;
  DiskId to = 0;
  Bytes bytes = 0;
  /// Ledger energy delta across the copy's internal serves.
  Joules energy{};
};

/// How an injected fault degrades a disk.
enum class FaultMode : std::uint8_t { kFailStop = 0, kSlowdown = 1 };

[[nodiscard]] constexpr const char* to_string(FaultMode m) {
  return m == FaultMode::kFailStop ? "fail_stop" : "slowdown";
}

/// Fired when an injected fault takes effect on a disk: kFailStop removes
/// it from the legal route targets, kSlowdown inflates its service by
/// `factor` (a factor of 1 announces a return to nominal speed).
struct DiskFailEvent {
  Seconds time{};
  DiskId disk = 0;
  FaultMode mode = FaultMode::kFailStop;
  /// Service inflation multiplier (kSlowdown only; 1.0 for kFailStop).
  double factor = 1.0;
};

/// Fired when a failed disk returns to service.
struct DiskRecoverEvent {
  Seconds time{};
  DiskId disk = 0;
  /// How long the disk was failed.
  Seconds downtime{};
};

/// What happened to a request whose routed disk was degraded.
enum class DegradedOutcome : std::uint8_t {
  /// Served by an alternate disk the policy named (replica, MAID cache).
  kRedirected = 0,
  /// Served by a slowed disk (service inflated by the slowdown factor).
  kSlowed = 1,
  /// No live copy — the request was recorded as lost, not served.
  kLost = 2,
  /// Rebuilt from parity: served by costed reads on the surviving stripe
  /// units (see StripeReconstructEvent for the fan-out).
  kReconstructed = 3,
};

[[nodiscard]] constexpr const char* to_string(DegradedOutcome o) {
  switch (o) {
    case DegradedOutcome::kRedirected: return "redirected";
    case DegradedOutcome::kSlowed: return "slowed";
    case DegradedOutcome::kLost: return "lost";
    case DegradedOutcome::kReconstructed: return "reconstructed";
  }
  return "?";
}

/// Fired at a request's arrival instant when faults perturbed its service.
/// Precedes the request's RequestCompleteEvent; a kLost request emits only
/// this (no completion, and it is excluded from response-time stats and
/// the served-request count).
struct RequestDegradedEvent {
  Seconds time{};  ///< the request's arrival
  FileId file = kInvalidFile;
  /// Disk the policy's route()/stripe() chose before the fault check.
  DiskId intended = 0;
  /// Disk that actually served it (== intended for kSlowed; for kLost no
  /// disk served it and this echoes `intended`).
  DiskId served_by = 0;
  DegradedOutcome outcome = DegradedOutcome::kLost;
  /// Slowdown factor applied (kSlowed only; 1.0 otherwise).
  double slowdown = 1.0;
};

/// Fired when a parity rebuild of a failed disk begins (at the failure
/// instant — the scheme knows immediately how much must be reconstructed).
struct RebuildStartEvent {
  Seconds time{};
  DiskId disk = 0;
  /// Bytes placed on the failed disk that the rebuild must reconstruct.
  Bytes bytes = 0;
};

/// Fired after each rebuild step's I/O (source reads + the reconstructed
/// write) was issued. Progress is cumulative.
struct RebuildProgressEvent {
  Seconds time{};
  DiskId disk = 0;
  Bytes done = 0;
  Bytes total = 0;
  /// Ledger energy delta across the step's internal serves and rebuild
  /// wake-ups — this is the rebuild's slice of the conservation identity
  /// (see RunEndEvent).
  Joules energy{};
};

/// Fired when a rebuild finishes; a DiskRecoverEvent for the same disk at
/// the same instant follows (the rebuilt disk returns to service through
/// the normal fault machinery, so its measured downtime is the rebuild
/// duration plus any pre-rebuild lag).
struct RebuildCompleteEvent {
  Seconds time{};
  DiskId disk = 0;
  Bytes bytes = 0;
  /// Failure-to-completion duration (the observed repair time — an
  /// *output* feeding the MTTDL agreement check, not an input).
  Seconds duration{};
};

/// Fired at a degraded request's arrival instant when parity reconstructs
/// the failed unit: `sources` disks each served a costed read of `bytes`.
/// Precedes the request's RequestDegradedEvent(kReconstructed).
struct StripeReconstructEvent {
  Seconds time{};
  FileId file = kInvalidFile;
  /// The failed disk whose data was reconstructed.
  DiskId failed = 0;
  /// Number of surviving stripe units read (g − 1 when all survive).
  std::uint32_t sources = 0;
  /// Bytes reconstructed (read from *each* source).
  Bytes bytes = 0;
};

/// Fired at each epoch boundary of a control-enabled run
/// (SimConfig::control.enabled), after the ControlLoop folded the closing
/// epoch's window and the simulator actuated its decision — so the event
/// reports both the observed window and what was done about it. Follows
/// the boundary's EpochEndEvent; never fires when control is disabled.
/// Plain scalars only: obs sits below the control layer and does not see
/// its types.
struct ControlUpdateEvent {
  Seconds time{};
  /// 0-based index of the epoch that just closed.
  std::uint64_t epoch_index = 0;
  /// User requests served inside the closed epoch.
  std::uint64_t requests = 0;
  /// Requests shed by the admission window inside the closed epoch.
  std::uint64_t shed = 0;
  /// Mean response time over the epoch's served requests, seconds.
  double mean_rt_s = 0.0;
  /// Worst FCFS backlog seen at any dispatch inside the epoch, seconds.
  double max_backlog_s = 0.0;
  /// Ledger energy spent across the epoch, joules (all disks).
  double energy_j = 0.0;
  /// Idleness-threshold multiplier the latency controller requested
  /// (1 = hold; per-disk clamping happens at actuation).
  double h_scale = 1.0;
  /// Hot-zone resize the policy actually applied (post-guardrail).
  int hot_delta = 0;
  /// Epoch-length multiplier the backlog controller requested (1 = hold).
  double epoch_scale = 1.0;
  /// Epoch length in force after actuation, seconds.
  double epoch_len_s = 0.0;
};

/// Fired once after the trailing events drained and every ledger closed.
///
/// Conservation identity (pinned by tests/test_observer.cpp): with Σ over
/// the run's events,
///   Σ RequestCompleteEvent::energy
///   + Σ SpeedTransitionEvent::energy  (cause != kSpinUpToServe
///                                      and cause != kRebuild)
///   + Σ MigrationEvent::energy + Σ BackgroundCopyEvent::energy
///   + Σ RebuildProgressEvent::energy
///   + final_idle_energy
///   == total_energy == Σ per-disk ledger energy
/// (equal up to floating-point accumulation error; kRebuild transition
/// deltas are inside their step's RebuildProgressEvent::energy, exactly
/// as kSpinUpToServe deltas are inside their request's event).
struct RunEndEvent {
  Seconds horizon{};
  std::uint64_t user_requests = 0;
  Joules total_energy{};
  /// Idle energy accrued after each disk's last activity, accounted when
  /// the ledgers close at the horizon. Not serialized to JSONL.
  Joules final_idle_energy{};
};

/// Hook interface. All callbacks default to no-ops so observers override
/// only what they consume. Observers must not mutate simulation state —
/// the hooks are read-only by contract (they receive value snapshots).
class SimObserver {
 public:
  virtual ~SimObserver() = default;

  virtual void on_run_start(const RunStartEvent& event) { (void)event; }
  virtual void on_request_complete(const RequestCompleteEvent& event) {
    (void)event;
  }
  virtual void on_speed_transition(const SpeedTransitionEvent& event) {
    (void)event;
  }
  virtual void on_disk_state_change(const DiskStateChangeEvent& event) {
    (void)event;
  }
  virtual void on_epoch_end(const EpochEndEvent& event) { (void)event; }
  virtual void on_migration(const MigrationEvent& event) { (void)event; }
  virtual void on_background_copy(const BackgroundCopyEvent& event) {
    (void)event;
  }
  virtual void on_disk_fail(const DiskFailEvent& event) { (void)event; }
  virtual void on_disk_recover(const DiskRecoverEvent& event) { (void)event; }
  virtual void on_request_degraded(const RequestDegradedEvent& event) {
    (void)event;
  }
  virtual void on_rebuild_start(const RebuildStartEvent& event) {
    (void)event;
  }
  virtual void on_rebuild_progress(const RebuildProgressEvent& event) {
    (void)event;
  }
  virtual void on_rebuild_complete(const RebuildCompleteEvent& event) {
    (void)event;
  }
  virtual void on_stripe_reconstruct(const StripeReconstructEvent& event) {
    (void)event;
  }
  virtual void on_control_update(const ControlUpdateEvent& event) {
    (void)event;
  }
  virtual void on_run_end(const RunEndEvent& event) { (void)event; }
};

/// Fan-out to several observers in registration order (SimulationSession
/// uses this when more than one observer is attached).
class ObserverList final : public SimObserver {
 public:
  ObserverList() = default;

  void add(SimObserver& observer) { observers_.push_back(&observer); }
  [[nodiscard]] bool empty() const { return observers_.empty(); }
  [[nodiscard]] std::size_t size() const { return observers_.size(); }
  /// The attached observer when exactly one is present (lets callers skip
  /// the fan-out indirection), nullptr otherwise.
  [[nodiscard]] SimObserver* sole() const {
    return observers_.size() == 1 ? observers_.front() : nullptr;
  }

  void on_run_start(const RunStartEvent& event) override {
    for (auto* o : observers_) o->on_run_start(event);
  }
  void on_request_complete(const RequestCompleteEvent& event) override {
    for (auto* o : observers_) o->on_request_complete(event);
  }
  void on_speed_transition(const SpeedTransitionEvent& event) override {
    for (auto* o : observers_) o->on_speed_transition(event);
  }
  void on_disk_state_change(const DiskStateChangeEvent& event) override {
    for (auto* o : observers_) o->on_disk_state_change(event);
  }
  void on_epoch_end(const EpochEndEvent& event) override {
    for (auto* o : observers_) o->on_epoch_end(event);
  }
  void on_migration(const MigrationEvent& event) override {
    for (auto* o : observers_) o->on_migration(event);
  }
  void on_background_copy(const BackgroundCopyEvent& event) override {
    for (auto* o : observers_) o->on_background_copy(event);
  }
  void on_disk_fail(const DiskFailEvent& event) override {
    for (auto* o : observers_) o->on_disk_fail(event);
  }
  void on_disk_recover(const DiskRecoverEvent& event) override {
    for (auto* o : observers_) o->on_disk_recover(event);
  }
  void on_request_degraded(const RequestDegradedEvent& event) override {
    for (auto* o : observers_) o->on_request_degraded(event);
  }
  void on_rebuild_start(const RebuildStartEvent& event) override {
    for (auto* o : observers_) o->on_rebuild_start(event);
  }
  void on_rebuild_progress(const RebuildProgressEvent& event) override {
    for (auto* o : observers_) o->on_rebuild_progress(event);
  }
  void on_rebuild_complete(const RebuildCompleteEvent& event) override {
    for (auto* o : observers_) o->on_rebuild_complete(event);
  }
  void on_stripe_reconstruct(const StripeReconstructEvent& event) override {
    for (auto* o : observers_) o->on_stripe_reconstruct(event);
  }
  void on_control_update(const ControlUpdateEvent& event) override {
    for (auto* o : observers_) o->on_control_update(event);
  }
  void on_run_end(const RunEndEvent& event) override {
    for (auto* o : observers_) o->on_run_end(event);
  }

 private:
  std::vector<SimObserver*> observers_;
};

}  // namespace pr
