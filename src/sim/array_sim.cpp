#include "sim/array_sim.h"

#include <algorithm>
#include <array>
#include <span>
#include <stdexcept>

#include "control/control_loop.h"
#include "redundancy/rebuild.h"
#include "redundancy/scheme.h"
#include "sim/planner.h"
#include "util/contracts.h"
#include "util/log.h"

namespace pr {

ArrayContext::ArrayContext(const SimConfig& config, const FileSet& files)
    : config_(&config), files_(&files) {
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

/// Unit of request pull from the source (see RequestSource::next_batch).
/// Large enough to amortize the virtual dispatch, small enough that a
/// batch of Requests stays resident in L1.
constexpr std::size_t kRequestBatch = 256;

/// Internal driver; separated from the public function so the context can
/// stay a friend-only construct. Defined in this TU only — the header
/// forward-declares it solely for the friendship grant.
class ArraySimulator {
 public:
  ArraySimulator(const SimConfig& config, const FileSet& files,
                 RequestSource& source, Policy& policy, SimObserver* observer,
                 const FaultPlan* faults)
      : config_(config), files_(files), source_(source), policy_(policy),
        ctx_(config, files), control_(config.control),
        epoch_len_(config.epoch),
        h_epochs_(ctx_.counters_.intern("sim.epochs")),
        h_idle_checks_(ctx_.counters_.intern("sim.idle_checks")),
        h_idle_deferred_(ctx_.counters_.intern("sim.idle_checks_deferred")),
        h_spin_downs_(ctx_.counters_.intern("sim.spin_downs")),
        h_spin_vetoed_(ctx_.counters_.intern("sim.spin_downs_vetoed")),
        h_spin_ups_(ctx_.counters_.intern("sim.spin_ups_to_serve")) {
    ctx_.observer_ = observer;
    faults_.resize(config.disk_count);
    if (faults != nullptr) fault_events_ = faults->events();
    // Redundancy seam resolution: a parity scheme configured on the array
    // wins; otherwise the policy may expose its own copy set (replicas,
    // the MAID cache) as a scheme; otherwise degraded requests are lost.
    // The config scheme is built (and validated) even on fault-free runs
    // so a bad config errors deterministically.
    if (config.redundancy.kind != RedundancyKind::kNone) {
      owned_scheme_ = make_scheme(config.redundancy, config.disk_count);
    }
    scheme_ =
        owned_scheme_ != nullptr ? owned_scheme_.get() : policy_.redundancy();
    const bool parity = scheme_ != nullptr && scheme_->parity();
    if (parity && config.redundancy.rebuild) {
      rebuild_.configure(config.redundancy.rebuild_mbps,
                         config.redundancy.rebuild_chunk);
    }
    // Which counters a run registers is the one thing decided here: a
    // CounterRegistry snapshot includes zero-valued registered counters, so
    // the fault and redundancy sets are interned only when a non-empty plan
    // can make them fire. Nothing else asks whether a subsystem is on: an
    // empty plan, an idle rebuild scheduler and an all-live FaultState
    // never produce an event.
    if (!fault_events_.empty()) {
      h_faults_ = ctx_.counters_.intern("sim.faults_injected");
      h_recovers_ = ctx_.counters_.intern("sim.fault_recoveries");
      h_slowdowns_ = ctx_.counters_.intern("sim.fault_slowdowns");
      h_lost_ = ctx_.counters_.intern("sim.requests_lost");
      h_redirected_ = ctx_.counters_.intern("sim.requests_degraded");
      h_slowed_ = ctx_.counters_.intern("sim.requests_slowed");
    }
    if (!fault_events_.empty() && parity) {
      h_reconstructed_ = ctx_.counters_.intern("sim.requests_reconstructed");
      h_data_loss_ = ctx_.counters_.intern("redundancy.data_loss_events");
      if (config.redundancy.rebuild) {
        h_rebuild_steps_ = ctx_.counters_.intern("redundancy.rebuild_steps");
        h_rebuild_wakeups_ =
            ctx_.counters_.intern("redundancy.rebuild_wakeups");
        h_rebuilds_started_ =
            ctx_.counters_.intern("redundancy.rebuilds_started");
        h_rebuilds_completed_ =
            ctx_.counters_.intern("redundancy.rebuilds_completed");
        h_rebuilds_aborted_ =
            ctx_.counters_.intern("redundancy.rebuilds_aborted");
      }
    }
    // Control stays a switch: it folds every served request into the
    // epoch window and runs a controller step per boundary, work a
    // control-free run must not pay. Its counters arm with it, for the
    // same zero-valued-counter reason. (The ControlLoop member itself is
    // always constructed: a bad config errors deterministically even
    // before the first epoch fires.)
    control_on_ = config.control.enabled;
    if (control_on_) {
      shed_window_ = config.control.admit_window_s;
      h_ctl_updates_ = ctx_.counters_.intern("control.updates");
      h_ctl_shed_ = ctx_.counters_.intern("control.shed_requests");
      h_ctl_h_scaled_ = ctx_.counters_.intern("control.h_scaled");
      h_ctl_hot_grows_ = ctx_.counters_.intern("control.hot_grows");
      h_ctl_hot_shrinks_ = ctx_.counters_.intern("control.hot_shrinks");
      h_ctl_epoch_scaled_ = ctx_.counters_.intern("control.epoch_scaled");
    }
  }

  SimResult run() {
    policy_.initialize(ctx_);
    validate_placement();
    emit_run_start();
    arm_initial_idle_checks();

    next_epoch_ = epoch_len_;
    Seconds horizon{0.0};
    Seconds last_arrival{0.0};
    bool any_requests = false;
    SimObserver* const obs = ctx_.observer_;

    recompute_wake_hint();
    // Requests are pulled in batches (one virtual dispatch per batch, not
    // per request) and each batch is processed against the cached wake
    // hint: while arrivals stay strictly below the earliest pending
    // deferred event or boundary, the event merge is one comparison. Both
    // are transport/caching details — the per-request event interleaving
    // is unchanged, which the seed-layout and degraded-path goldens pin.
    std::array<Request, kRequestBatch> batch;
    // The policy's chunks for the in-flight request; the plan swaps its
    // buffer back, so both stay allocated across requests.
    std::vector<StripeChunk> chunks;
    for (std::size_t filled = 0;
         (filled = source_.next_batch(batch.data(), batch.size())) > 0;) {
    for (std::size_t bi = 0; bi < filled; ++bi) {
      const Request& req = batch[bi];
      // Incremental input validation: a streaming source has no upfront
      // pass, so the materialized path's contract errors are re-raised
      // here, verbatim, the moment a violation arrives.
      if (any_requests && req.arrival < last_arrival) {
        throw std::invalid_argument("run_simulation: trace is not sorted");
      }
      if (req.file == kInvalidFile || req.file >= files_.size()) {
        throw std::invalid_argument(
            "run_simulation: trace references unknown file");
      }
      last_arrival = req.arrival;
      any_requests = true;

      if (!(req.arrival < ctx_.wake_hint_)) {
        advance_until(req.arrival);
        fire_epochs_until(req.arrival);
        recompute_wake_hint();
      }
      ctx_.now_ = req.arrival;

      // Per-epoch popularity tracking (Fig. 6 line 9, the "Access
      // Tracking Manager").
      ++ctx_.epoch_counts_[req.file];
      ++ctx_.epoch_requests_;

      if (obs != nullptr) pending_ = RequestCompleteEvent{};
      request_slowed_ = false;
      request_slowdown_ = 1.0;

      // One dispatch path: a non-striped route() is a one-chunk stripe.
      if (policy_.striped()) {
        chunks = policy_.stripe(ctx_, req);
      } else {
        chunks.assign(1, StripeChunk{policy_.route(ctx_, req), req.size});
      }
      plan_request(ctx_, faults_, scheme_, req, std::move(chunks), plan_);
      // Admission precedes booking: a shed request is neither lost nor
      // served. The request's disk stands in for the stripe's backlog.
      if (control_on_ && !admit(req, plan_.primary)) continue;
      if (plan_.lost) {
        // No live copy: the request is recorded, not served — no response
        // time sample, no completion event, no after_serve (the epoch
        // popularity bump above stands: demand existed even if unmet).
        ctx_.counters_.add(h_lost_);
        if (obs != nullptr) {
          obs->on_request_degraded(RequestDegradedEvent{
              req.arrival, req.file, plan_.primary, plan_.primary,
              DegradedOutcome::kLost, 1.0});
        }
        continue;
      }
      // Degraded chunks are booked before any serve, so their events
      // precede the request's spin-up transitions.
      for (const DegradedChunk& chunk : plan_.degraded) {
        book_degraded(req, chunk);
      }
      // All chunks start in parallel; the request completes when the
      // slowest disk finishes its piece.
      Seconds completion{0.0};
      for (const StripeChunk& chunk : plan_.serves) {
        completion = std::max(
            completion, serve_on(chunk.disk, req.arrival, chunk.bytes, req.file));
      }
      if (request_slowed_) {
        ctx_.counters_.add(h_slowed_);
        if (obs != nullptr) {
          obs->on_request_degraded(RequestDegradedEvent{
              req.arrival, req.file, plan_.primary, plan_.primary,
              DegradedOutcome::kSlowed, request_slowdown_});
        }
      }
      horizon = std::max(horizon, completion);

      const double rt = (completion - req.arrival).value();
      result_.response_time.add(rt);
      result_.response_time_sample.add(rt);
      ++result_.user_requests;
      if (control_on_) {
        // Per-epoch latency window for the control loop; arrival order,
        // so the fold is deterministic.
        ++ctl_epoch_served_;
        ctl_epoch_rt_sum_ += rt;
      }

      if (obs != nullptr) {
        pending_.arrival = req.arrival;
        pending_.completion = completion;
        pending_.file = req.file;
        pending_.disk = plan_.primary;
        pending_.bytes = req.size;
        pending_.stripe_chunks =
            static_cast<std::uint32_t>(plan_.serves.size());
        obs->on_request_complete(pending_);
      }

      // after_serve may add background I/O (MAID cache fills); the idle
      // checks are armed afterwards so they see the disks' true ready
      // times.
      policy_.after_serve(ctx_, req, plan_.primary);
      for (const StripeChunk& chunk : plan_.serves) {
        ctx_.schedule_idle_check(chunk.disk,
                                 ctx_.disks_[chunk.disk].ready_time());
      }
    }
    }

    if (any_requests) {
      horizon = std::max(horizon, last_arrival);
    }
    // Trailing events inside the horizon still count (a final spin-down
    // whose idle window closed before the last completion, a fault that
    // strikes between the last arrival and the last completion).
    advance_until(horizon);

    finalize(horizon);
    return std::move(result_);
  }

 private:
  /// Serve `bytes` of `file` on disk `d` (validated by the planner) at
  /// `arrival`, applying spin-up-to-serve. Returns completion.
  Seconds serve_on(DiskId d, Seconds arrival, Bytes bytes, FileId file) {
    Disk& disk = ctx_.disks_[d];
    SimObserver* const obs = ctx_.observer_;
    // Ledger snapshots so the request event carries exact per-operation
    // deltas (busy time, energy including spin-up + lazily accounted
    // idle). Only taken when an observer is attached.
    Seconds busy_before{0.0};
    Joules energy_before{0.0};
    if (obs != nullptr) {
      busy_before = disk.ledger().busy_time;
      energy_before = disk.ledger().energy;
      const Seconds queued = disk.ready_time() - arrival;
      if (queued > pending_.backlog) pending_.backlog = queued;
    }
    if (disk.speed() == DiskSpeed::kLow) {
      const bool promote_always = ctx_.dpm_[d].spin_up_to_serve;
      const Seconds backlog_limit = ctx_.dpm_[d].spin_up_backlog;
      const bool promote_on_load =
          backlog_limit < kNeverTime &&
          disk.ready_time() - arrival > backlog_limit;
      if (promote_always || promote_on_load) {
        ctx_.change_speed(d, DiskSpeed::kHigh, TransitionCause::kSpinUpToServe,
                          h_spin_ups_);
      }
    }
    Seconds completion =
        ctx_.positioned_io()
            ? disk.serve_positioned(arrival, bytes, ctx_.cylinder_of(file))
            : disk.serve(arrival, bytes);
    // Injected slowdown: the disk pays an extra internal transfer of
    // (factor − 1) × bytes right behind the request (average-cost seek
    // even in positional mode — degraded media, not head travel). The
    // chaser sits inside the observer snapshot, so the request's energy
    // and service-time deltas include it.
    const double factor = faults_.slowdown(d);
    if (factor > 1.0) {
      const auto extra =
          static_cast<Bytes>((factor - 1.0) * static_cast<double>(bytes));
      if (extra > 0) {
        completion = disk.serve(completion, extra, /*internal=*/true);
        request_slowed_ = true;
        request_slowdown_ = std::max(request_slowdown_, factor);
      }
    }
    if (obs != nullptr) {
      pending_.service_time += disk.ledger().busy_time - busy_before;
      pending_.energy += disk.ledger().energy - energy_before;
    }
    return completion;
  }

  /// Book one recovered chunk of a surviving request: its counter and
  /// degraded events (a reconstruction also announces its fan-out).
  void book_degraded(const Request& req, const DegradedChunk& chunk) {
    const bool redirected = chunk.outcome == DegradedOutcome::kRedirected;
    ctx_.counters_.add(redirected ? h_redirected_ : h_reconstructed_);
    SimObserver* const obs = ctx_.observer_;
    if (obs == nullptr) return;
    if (!redirected) {
      obs->on_stripe_reconstruct(StripeReconstructEvent{
          req.arrival, req.file, chunk.failed, chunk.sources, chunk.bytes});
    }
    obs->on_request_degraded(
        RequestDegradedEvent{req.arrival, req.file, chunk.failed,
                             chunk.served_by, chunk.outcome, 1.0});
  }

  /// Parity bookkeeping at a fail-stop instant: count the failure as a
  /// data-loss event if it overlaps another failure the layout cannot
  /// survive (one event per new failure — the Markov model's absorbing
  /// transition), then start the paced background rebuild of everything
  /// placed on the disk.
  void on_parity_failure(Seconds at, DiskId disk) {
    for (DiskId other = 0; other < ctx_.disks_.size(); ++other) {
      if (other == disk || !faults_.failed(other)) continue;
      if (scheme_->loses_data(disk, other)) {
        ctx_.counters_.add(h_data_loss_);
        break;
      }
    }
    if (!config_.redundancy.rebuild || rebuild_.rebuilding(disk)) return;
    Bytes total = 0;
    for (FileId f = 0; f < ctx_.placement_.size(); ++f) {
      if (ctx_.placement_[f] == disk) total += files_.by_id(f).size;
    }
    rebuild_.start(disk, at, total);
    ctx_.counters_.add(h_rebuilds_started_);
    if (ctx_.observer_ != nullptr) {
      ctx_.observer_->on_rebuild_start(RebuildStartEvent{at, disk, total});
    }
  }

  /// One internal rebuild serve on `d`: wake the disk if it is spun down
  /// (TransitionCause::kRebuild — the energy cost of staying protected),
  /// pay the transfer, and drop any pending idle check (the background-
  /// I/O precedent set by migrate/background_copy: no re-arm, the next
  /// foreground serve re-arms).
  void rebuild_io(DiskId d, Bytes bytes) {
    ctx_.change_speed(d, DiskSpeed::kHigh, TransitionCause::kRebuild,
                      h_rebuild_wakeups_);
    if (bytes > 0) ctx_.disks_[d].serve(ctx_.now_, bytes, /*internal=*/true);
    ctx_.cancel_idle_check(d);
  }

  /// Turn one due rebuild step into I/O: a read on each surviving stripe
  /// source plus the reconstructed write on the rebuilt disk (its ledger
  /// models the replacement spindle), all queued FCFS behind foreground
  /// traffic. A completing step returns the disk to service through the
  /// normal fault machinery — a synthetic kRecover at the same instant —
  /// so the observed downtime (DiskRecoverEvent) *is* the repair time.
  void run_rebuild_step(const RebuildScheduler::Step& step) {
    const Seconds at = step.time;
    scratch_sources_.clear();
    scheme_->rebuild_sources(faults_, step.disk, step.index, scratch_sources_);
    SimObserver* const obs = ctx_.observer_;
    // Ledger energy of every disk the step touches (rebuilt disk first).
    const auto step_energy = [&] {
      Joules sum = ctx_.disks_[step.disk].ledger().energy;
      for (const DiskId s : scratch_sources_) {
        sum += ctx_.disks_[s].ledger().energy;
      }
      return sum;
    };
    const Joules energy_before = obs != nullptr ? step_energy() : Joules{0.0};
    for (const DiskId s : scratch_sources_) rebuild_io(s, step.bytes);
    rebuild_io(step.disk, step.bytes);
    ctx_.counters_.add(h_rebuild_steps_);
    if (obs != nullptr) {
      obs->on_rebuild_progress(RebuildProgressEvent{
          at, step.disk, step.done, step.total, step_energy() - energy_before});
    }
    if (step.completes) {
      ctx_.counters_.add(h_rebuilds_completed_);
      if (obs != nullptr) {
        obs->on_rebuild_complete(RebuildCompleteEvent{
            at, step.disk, step.total, at - step.started});
      }
      apply_fault(FaultEvent{at, step.disk, FaultKind::kRecover, 1.0});
    }
  }

  /// Apply one plan event to the live FaultState; announce it (and bump
  /// the matching counter) only when it actually changed something —
  /// idempotent events stay invisible.
  void apply_fault(const FaultEvent& e) {
    const FaultState::ApplyResult applied = faults_.apply(e);
    if (!applied.changed) return;
    SimObserver* const obs = ctx_.observer_;
    switch (e.kind) {
      case FaultKind::kFail:
        ctx_.counters_.add(h_faults_);
        if (obs != nullptr) {
          obs->on_disk_fail(
              DiskFailEvent{e.time, e.disk, FaultMode::kFailStop, 1.0});
        }
        if (scheme_ != nullptr && scheme_->parity()) {
          on_parity_failure(e.time, e.disk);
        }
        break;
      case FaultKind::kRecover:
        ctx_.counters_.add(h_recovers_);
        // The disk came back by external means (a plan kRecover) while a
        // rebuild was still copying — drop the now-moot rebuild.
        if (rebuild_.abort(e.disk)) {
          ctx_.counters_.add(h_rebuilds_aborted_);
        }
        if (obs != nullptr) {
          obs->on_disk_recover(
              DiskRecoverEvent{e.time, e.disk, applied.downtime});
        }
        break;
      case FaultKind::kSlowdown:
        ctx_.counters_.add(h_slowdowns_);
        if (obs != nullptr) {
          obs->on_disk_fail(
              DiskFailEvent{e.time, e.disk, FaultMode::kSlowdown, e.factor});
        }
        break;
    }
  }

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
  [[nodiscard]] Deferred next_deferred() {
    Deferred next{fault_cursor_ < fault_events_.size()
                      ? fault_events_[fault_cursor_].time
                      : kNeverTime,
                  Source::kFault};
    if (const Seconds r = rebuild_.next_time(); r < next.time) {
      next = {r, Source::kRebuild};
    }
    IdleTimerHeap& idle = ctx_.idle_timer_;
    if (!idle.empty()) {
      if (const Seconds i = idle.next_time(); i < next.time) {
        next = {i, Source::kIdle};
      }
    }
    return next;
  }

  /// Refresh the cached lower bound on the earliest pending deferred event
  /// or epoch boundary (see ArrayContext::wake_hint_). Called after every
  /// slow-path advance; schedule_idle_check lowers the hint in between.
  void recompute_wake_hint() {
    ctx_.wake_hint_ = std::min(next_epoch_, next_deferred().time);
  }

  /// Advance simulated time to `t`: dispatch every deferred event due at or
  /// before `t` in next_deferred() order, each preceded by the epoch
  /// boundaries at or before its instant. Each event is claimed before that
  /// epoch work, so boundary work (a migration disarming an idle check)
  /// cannot retract an event that is already due. The caller fires the
  /// boundaries up to an arrival; the end of the run is not an event, so
  /// boundaries after the last deferred event never fire.
  void advance_until(Seconds t) {
    for (Deferred next = next_deferred(); next.time <= t;
         next = next_deferred()) {
      switch (next.source) {
        case Source::kFault: {
          const FaultEvent& event = fault_events_[fault_cursor_++];
          fire_epochs_until(next.time);
          apply_fault(event);
          break;
        }
        case Source::kRebuild: {
          RebuildScheduler::Step step;
          rebuild_.pop_due(next.time, step);
          fire_epochs_until(next.time);
          run_rebuild_step(step);
          break;
        }
        case Source::kIdle: {
          const IdleTimerHeap::Deadline deadline = ctx_.idle_timer_.pop();
          PR_INVARIANT(!(deadline.time < ctx_.now_),
                       "advance_until: idle deadline fired in the past");
          fire_epochs_until(next.time);
          handle_idle_check(deadline.disk);
          break;
        }
      }
    }
  }

  void validate_placement() const {
    for (std::size_t f = 0; f < ctx_.placement_.size(); ++f) {
      if (ctx_.placement_[f] == kInvalidDisk) {
        throw std::logic_error("policy left file " + std::to_string(f) +
                               " unplaced");
      }
    }
  }

  void arm_initial_idle_checks() {
    for (DiskId d = 0; d < ctx_.disks_.size(); ++d) {
      ctx_.schedule_idle_check(d, Seconds{0.0});
    }
  }

  /// A live idle check for disk `d` fired now (every popped deadline is
  /// live: re-arming replaces a disk's slot in place): spin down if the
  /// disk has genuinely been idle past its (current) threshold.
  void handle_idle_check(DiskId d) {
    const Seconds at = ctx_.now_;
    Disk& disk = ctx_.disks_[d];
    ctx_.counters_.add(h_idle_checks_);
    if (!ctx_.dpm_[d].spin_down_when_idle) return;
    if (disk.speed() != DiskSpeed::kHigh) return;
    // The threshold may have grown since this check was scheduled (READ's
    // adaptive doubling), or the disk may still be working off queued
    // I/O: honour the *current* deadline. The strict `>` comparison on the
    // deadline (not on the elapsed idle time) guarantees any re-armed
    // event lies strictly in the future — comparing elapsed-vs-H instead
    // can re-arm an event at its own timestamp when floating-point
    // rounding makes (at − idle_since) dip just below H, which livelocks.
    const Seconds idle_since = disk.ready_time();
    const Seconds deadline = idle_since + ctx_.dpm_[d].idleness_threshold;
    if (deadline > at) {
      ctx_.counters_.add(h_idle_deferred_);
      ctx_.idle_timer_.arm(d, deadline, ctx_.idle_seq_++);
      return;
    }
    if (!policy_.allow_spin_down(ctx_, d, at)) {
      ctx_.counters_.add(h_spin_vetoed_);
      return;
    }
    ctx_.change_speed(d, DiskSpeed::kLow, TransitionCause::kDpmIdle,
                      h_spin_downs_);
  }

  /// The lazy epoch barrier ahead of an event or arrival at `t`: fire
  /// every boundary <= t, then stand the clock at `t`.
  void fire_epochs_until(Seconds t) {
    while (next_epoch_ <= t) {
      ctx_.now_ = next_epoch_;
      policy_.on_epoch(ctx_, next_epoch_);
      ctx_.counters_.add(h_epochs_);
#if PR_CONTRACTS_ENABLED
      // Epoch boundaries are the quiescent points where every disk's
      // ledger must conserve: each accounted instant lands in exactly one
      // bucket and energy never goes negative (this is what makes the
      // reported energy/AFR trustworthy between goldens).
      for (const Disk& disk : ctx_.disks_) {
        PR_INVARIANT(disk.ledger_conserves(),
                     "epoch boundary: disk ledger does not conserve");
      }
#endif
      if (ctx_.observer_ != nullptr) {
        // After the policy's boundary work (so its migrations precede the
        // epoch-close event) and before the counts reset.
        ctx_.observer_->on_epoch_end(
            EpochEndEvent{next_epoch_, epoch_index_, ctx_.epoch_requests_});
      }
      // Control closes the loop after the boundary's epoch-end event (its
      // ControlUpdateEvent documents itself as following EpochEndEvent)
      // and before the counts reset, so the policy's decayed counts it
      // reads are the ones on_epoch just produced.
      if (control_on_) control_step(next_epoch_);
      ++epoch_index_;
      std::fill(ctx_.epoch_counts_.begin(), ctx_.epoch_counts_.end(), 0);
      ctx_.epoch_requests_ = 0;
      next_epoch_ += epoch_len_;
    }
    ctx_.now_ = t;
  }

  /// Control-mode admission at dispatch: measure the request's disk's FCFS
  /// backlog (how long the request would wait before service begins),
  /// fold it into the epoch window, and — when an admission window is
  /// configured — shed the request instead of queueing it unboundedly.
  /// A shed request is recorded, not served: no response-time sample, no
  /// completion event, no after_serve (the epoch popularity bump stands:
  /// demand existed even if unmet — same contract as a lost request).
  bool admit(const Request& req, DiskId primary) {
    const double backlog = std::max(
        0.0, (ctx_.disks_[primary].ready_time() - req.arrival).value());
    if (shed_window_ > 0.0 && backlog > shed_window_) {
      ctx_.counters_.add(h_ctl_shed_);
      ++ctl_epoch_shed_;
      return false;
    }
    if (backlog > ctl_epoch_backlog_) ctl_epoch_backlog_ = backlog;
    return true;
  }

  /// Close the epoch's control window: fold the observed latency / energy
  /// / backlog into the ControlLoop, actuate its knob decisions — DPM
  /// idleness thresholds here, the hot-zone size through
  /// Policy::on_control, the epoch length via the boundary stride — and
  /// announce the update to the observer. The energy window is the ledger
  /// delta between boundaries; ledgers close idle stretches lazily (on
  /// the next activity), so a window's spend can lag by a trailing idle
  /// stretch — deterministic, and it evens out across windows.
  void control_step(Seconds boundary) {
    const ControlConfig& cfg = config_.control;
    Joules energy_now{0.0};
    for (const Disk& disk : ctx_.disks_) energy_now += disk.ledger().energy;

    ControlInputs in;
    in.epoch_s = epoch_len_.value();
    in.requests = ctl_epoch_served_;
    in.mean_rt_s =
        ctl_epoch_served_ > 0
            ? ctl_epoch_rt_sum_ / static_cast<double>(ctl_epoch_served_)
            : 0.0;
    in.max_backlog_s = ctl_epoch_backlog_;
    in.energy_j = (energy_now - ctl_last_energy_).value();
    in.shed = ctl_epoch_shed_;

    const ControlDecision decision = control_.update(in);
    ctx_.counters_.add(h_ctl_updates_);

    if (decision.h_scale != 1.0) {
      // Rescale every DPM-managed disk's idleness threshold; disks the
      // policy left un-managed (cold zones, always-on disks) are not the
      // latency controller's to touch.
      bool scaled = false;
      for (DiskId d = 0; d < ctx_.disks_.size(); ++d) {
        if (!ctx_.dpm_[d].spin_down_when_idle) continue;
        const double h = ctx_.dpm_[d].idleness_threshold.value();
        const double stretched =
            std::clamp(h * decision.h_scale, cfg.h_min_s, cfg.h_max_s);
        if (stretched != h) {
          ctx_.set_idleness_threshold(d, Seconds{stretched});
          scaled = true;
        }
      }
      if (scaled) ctx_.counters_.add(h_ctl_h_scaled_);
    }

    int applied = 0;
    if (decision.hot_delta != 0) {
      applied = policy_.on_control(ctx_, decision, boundary);
      if (applied > 0) {
        ctx_.counters_.add(h_ctl_hot_grows_,
                           static_cast<std::uint64_t>(applied));
      } else if (applied < 0) {
        ctx_.counters_.add(h_ctl_hot_shrinks_,
                           static_cast<std::uint64_t>(-applied));
      }
    }

    if (decision.epoch_scale != 1.0) {
      const double stretched = std::clamp(
          epoch_len_.value() * decision.epoch_scale, cfg.epoch_min_s,
          cfg.epoch_max_s);
      if (stretched != epoch_len_.value()) {
        epoch_len_ = Seconds{stretched};
        ctx_.counters_.add(h_ctl_epoch_scaled_);
      }
    }

    if (ctx_.observer_ != nullptr) {
      ControlUpdateEvent event;
      event.time = boundary;
      event.epoch_index = epoch_index_;
      event.requests = ctl_epoch_served_;
      event.shed = ctl_epoch_shed_;
      event.mean_rt_s = in.mean_rt_s;
      event.max_backlog_s = in.max_backlog_s;
      event.energy_j = in.energy_j;
      event.h_scale = decision.h_scale;
      event.hot_delta = applied;
      event.epoch_scale = decision.epoch_scale;
      event.epoch_len_s = epoch_len_.value();
      ctx_.observer_->on_control_update(event);
    }

    ctl_last_energy_ = energy_now;
    ctl_epoch_served_ = 0;
    ctl_epoch_rt_sum_ = 0.0;
    ctl_epoch_backlog_ = 0.0;
    ctl_epoch_shed_ = 0;
  }

  void emit_run_start() {
    if (ctx_.observer_ == nullptr) return;
    RunStartEvent event;
    event.disk_count = ctx_.disks_.size();
    event.file_count = files_.size();
    event.epoch = config_.epoch;
    event.initial_speeds.reserve(ctx_.disks_.size());
    for (const Disk& d : ctx_.disks_) event.initial_speeds.push_back(d.speed());
    ctx_.observer_->on_run_start(event);
  }

  void finalize(Seconds horizon) {
    result_.policy_name = policy_.name();
    result_.horizon = horizon;
    result_.ledgers.reserve(ctx_.disks_.size());
    result_.telemetry.reserve(ctx_.disks_.size());
    Joules final_idle{0.0};
    for (auto& disk : ctx_.disks_) {
      const Joules before_close = disk.ledger().energy;
      disk.finish(horizon);
      final_idle += disk.ledger().energy - before_close;
      result_.ledgers.push_back(disk.ledger());
      result_.telemetry.push_back(
          extract_telemetry(disk, config_.temperature_attribution));
      result_.total_energy += disk.ledger().energy;
      result_.total_transitions += disk.ledger().transitions;
      result_.max_transitions_per_day =
          std::max(result_.max_transitions_per_day,
                   disk.ledger().press_transitions_per_day());
    }
    result_.migrations = ctx_.migrations_;
    result_.migration_bytes = ctx_.migration_bytes_;
    result_.counters = ctx_.counters_.snapshot();
    if (ctx_.observer_ != nullptr) {
      ctx_.observer_->on_run_end(RunEndEvent{
          horizon, static_cast<std::uint64_t>(result_.user_requests),
          result_.total_energy, final_idle});
    }
  }

  const SimConfig& config_;
  const FileSet& files_;
  RequestSource& source_;
  Policy& policy_;
  ArrayContext ctx_;
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
  // Feedback-control state; armed only when SimConfig::control.enabled.
  // epoch_len_ starts at config.epoch and only the epoch controller ever
  // moves it, so control-free runs keep today's fixed boundary stride.
  bool control_on_ = false;
  ControlLoop control_;
  double shed_window_ = 0.0;
  Seconds epoch_len_{0.0};
  std::uint64_t ctl_epoch_served_ = 0;
  double ctl_epoch_rt_sum_ = 0.0;
  double ctl_epoch_backlog_ = 0.0;
  std::uint64_t ctl_epoch_shed_ = 0;
  Joules ctl_last_energy_{0.0};
  Seconds next_epoch_{0.0};
  std::uint64_t epoch_index_ = 0;
  SimResult result_;
  /// Accumulator for the in-flight request's observer event (backlog,
  /// service-time and energy deltas across its chunks); only maintained
  /// while an observer is attached.
  RequestCompleteEvent pending_;

  // Interned core-counter handles (hot-path bumps are one vector add).
  CounterRegistry::Handle h_epochs_;
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
  // Control counters; interned only when SimConfig::control.enabled.
  CounterRegistry::Handle h_ctl_updates_ = 0;
  CounterRegistry::Handle h_ctl_shed_ = 0;
  CounterRegistry::Handle h_ctl_h_scaled_ = 0;
  CounterRegistry::Handle h_ctl_hot_grows_ = 0;
  CounterRegistry::Handle h_ctl_hot_shrinks_ = 0;
  CounterRegistry::Handle h_ctl_epoch_scaled_ = 0;
};

SimResult run_simulation(const SimConfig& config, const FileSet& files,
                         RequestSource& source, Policy& policy,
                         SimObserver* observer, const FaultPlan* faults) {
  validate(config.disk_params);
  if (faults != nullptr) faults->validate(config.disk_count);
  ArraySimulator sim(config, files, source, policy, observer, faults);
  return sim.run();
}

SimResult run_simulation(const SimConfig& config, const FileSet& files,
                         const Trace& trace, Policy& policy,
                         SimObserver* observer, const FaultPlan* faults) {
  // Upfront validation preserves the historical contract that a bad trace
  // throws before the policy runs initialize(). One pass gathers both
  // conditions, and an inversion anywhere outranks an unknown file id,
  // even one that comes earlier in the trace.
  bool unsorted = false;
  bool unknown_file = false;
  Seconds last = trace.requests.empty() ? Seconds{}
                                        : trace.requests.front().arrival;
  for (const auto& r : trace.requests) {
    unsorted |= r.arrival < last;
    unknown_file |= r.file == kInvalidFile || r.file >= files.size();
    last = r.arrival;
  }
  if (unsorted) {
    throw std::invalid_argument("run_simulation: trace is not sorted");
  }
  if (unknown_file) {
    throw std::invalid_argument(
        "run_simulation: trace references unknown file");
  }
  TraceSource source(trace);
  return run_simulation(config, files, source, policy, observer, faults);
}

}  // namespace pr
