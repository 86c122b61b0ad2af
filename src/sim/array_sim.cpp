#include "sim/array_sim.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "sim/array_simulator.h"
#include "util/contracts.h"

namespace pr {

/// Unit of request pull from the source (see RequestSource::next_batch).
/// Large enough to amortize the virtual dispatch, small enough that a
/// batch of Requests stays resident in L1.
constexpr std::size_t kRequestBatch = 256;

namespace {

constexpr const char* kNonFiniteArrival =
    "run_simulation: trace has a non-finite arrival";
constexpr const char* kUnsorted = "run_simulation: trace is not sorted";

/// Cold path of the per-request arrival check. A non-finite arrival
/// outranks an inversion, as in run_simulation(Trace)'s upfront pass.
[[noreturn, gnu::noinline]] void throw_bad_arrival(Seconds arrival) {
  throw std::invalid_argument(
      std::isfinite(arrival.value()) ? kUnsorted : kNonFiniteArrival);
}

}  // namespace

// ArraySimulator's helpers are defined `inline` below, as they were when
// the class was defined in this file: with the hint GCC folds serve_on
// into the request loop and the deferred-event helpers into
// advance_until, which stays one out-of-line slow path; without it,
// serve_on is a call per serve. Every caller is in this file.

ArraySimulator::ArraySimulator(const SimConfig& config, const FileSet& files,
                               RequestSource& source, Policy& policy,
                               SimObserver* observer, const FaultPlan* faults)
    : config_(config), files_(files), source_(source), policy_(policy),
      ctx_(config, files, observer), epochs_(config.epoch, ctx_, policy),
      h_idle_checks_(ctx_.counters_.intern("sim.idle_checks")),
      h_idle_deferred_(ctx_.counters_.intern("sim.idle_checks_deferred")),
      h_spin_downs_(ctx_.counters_.intern("sim.spin_downs")),
      h_spin_vetoed_(ctx_.counters_.intern("sim.spin_downs_vetoed")),
      h_spin_ups_(ctx_.counters_.intern("sim.spin_ups_to_serve")) {
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
  // Which counters a run registers is the one thing decided here (the
  // control set is interned by the ControlWindow, built only when control
  // is on): a CounterRegistry snapshot includes zero-valued registered
  // counters, so the fault and redundancy sets are interned only when a
  // non-empty plan can make them fire. Nothing else asks whether a
  // subsystem is on: an empty plan, an idle rebuild scheduler and an
  // all-live FaultState never produce an event.
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
}

template <class Window>
SimResult ArraySimulator::run_with(Window& window) {
  policy_.initialize(ctx_);
  validate_placement();
  emit_run_start();
  arm_initial_idle_checks();

  Seconds horizon{0.0};
  // The lowest finite double, so the first arrival passes the order check
  // below unless it is -inf or NaN.
  Seconds last_arrival{std::numeric_limits<double>::lowest()};
  constexpr Seconds kMaxArrival{std::numeric_limits<double>::max()};
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
    // here, verbatim, the moment a violation arrives. Two compares catch
    // an inversion, NaN (every comparison with it is false), -inf (below
    // the lowest finite start) and +inf.
    if (!(req.arrival >= last_arrival && req.arrival <= kMaxArrival))
        [[unlikely]] {
      throw_bad_arrival(req.arrival);
    }
    if (req.file == kInvalidFile || req.file >= files_.size()) {
      throw std::invalid_argument(
          "run_simulation: trace references unknown file");
    }
    last_arrival = req.arrival;

    if (!(req.arrival < ctx_.wake_hint_)) {
      advance_until(req.arrival, window);
      epochs_.fire_until(req.arrival, window);
      recompute_wake_hint();
    }
    ctx_.now_ = req.arrival;

    epochs_.record(req.file);

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
    if (!window.admit(req, plan_.primary)) continue;
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
    window.fold(rt);

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

  // Without requests last_arrival is still the lowest double, a no-op.
  horizon = std::max(horizon, last_arrival);
  // Trailing events inside the horizon still count (a final spin-down
  // whose idle window closed before the last completion, a fault that
  // strikes between the last arrival and the last completion).
  advance_until(horizon, window);

  finalize(horizon);
  return std::move(result_);
}

inline Seconds ArraySimulator::serve_on(DiskId d, Seconds arrival, Bytes bytes,
                                 FileId file) {
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

inline void ArraySimulator::book_degraded(const Request& req,
                                   const DegradedChunk& chunk) {
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

inline void ArraySimulator::on_parity_failure(Seconds at, DiskId disk) {
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

inline void ArraySimulator::rebuild_io(DiskId d, Bytes bytes) {
  ctx_.change_speed(d, DiskSpeed::kHigh, TransitionCause::kRebuild,
                    h_rebuild_wakeups_);
  if (bytes > 0) ctx_.disks_[d].serve(ctx_.now_, bytes, /*internal=*/true);
  ctx_.cancel_idle_check(d);
}

inline void ArraySimulator::run_rebuild_step(const RebuildScheduler::Step& step) {
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

inline void ArraySimulator::apply_fault(const FaultEvent& e) {
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

inline ArraySimulator::Deferred ArraySimulator::next_deferred() {
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

template <class Window>
void ArraySimulator::advance_until(Seconds t, Window& window) {
  for (Deferred next = next_deferred(); next.time <= t;
       next = next_deferred()) {
    switch (next.source) {
      case Source::kFault: {
        const FaultEvent& event = fault_events_[fault_cursor_++];
        epochs_.fire_until(next.time, window);
        apply_fault(event);
        break;
      }
      case Source::kRebuild: {
        RebuildScheduler::Step step;
        rebuild_.pop_due(next.time, step);
        epochs_.fire_until(next.time, window);
        run_rebuild_step(step);
        break;
      }
      case Source::kIdle: {
        const IdleTimerHeap::Deadline deadline = ctx_.idle_timer_.pop();
        PR_INVARIANT(!(deadline.time < ctx_.now_),
                     "advance_until: idle deadline fired in the past");
        epochs_.fire_until(next.time, window);
        handle_idle_check(deadline.disk);
        break;
      }
    }
  }
}

inline void ArraySimulator::validate_placement() const {
  for (std::size_t f = 0; f < ctx_.placement_.size(); ++f) {
    if (ctx_.placement_[f] == kInvalidDisk) {
      throw std::logic_error("policy left file " + std::to_string(f) +
                             " unplaced");
    }
  }
}

inline void ArraySimulator::arm_initial_idle_checks() {
  for (DiskId d = 0; d < ctx_.disks_.size(); ++d) {
    ctx_.schedule_idle_check(d, Seconds{0.0});
  }
}

inline void ArraySimulator::handle_idle_check(DiskId d) {
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

inline void ArraySimulator::emit_run_start() {
  if (ctx_.observer_ == nullptr) return;
  RunStartEvent event;
  event.disk_count = ctx_.disks_.size();
  event.file_count = files_.size();
  event.epoch = config_.epoch;
  event.initial_speeds.reserve(ctx_.disks_.size());
  for (const Disk& d : ctx_.disks_) event.initial_speeds.push_back(d.speed());
  ctx_.observer_->on_run_start(event);
}

inline void ArraySimulator::finalize(Seconds horizon) {
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

SimResult ArraySimulator::run() {
  // Control is chosen by structure, not by a flag in the loop: a
  // control-free run instantiates the loop over NoControl, whose admission
  // and fold compile away.
  if (!config_.control.enabled) {
    NoControl none;
    return run_with(none);
  }
  ControlWindow window(config_.control, ctx_, policy_);
  return run_with(window);
}

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
  // throws before the policy runs initialize(). One pass gathers all three
  // conditions, and they rank by kind, not position: a non-finite arrival
  // anywhere outranks an inversion, which outranks an unknown file id.
  bool non_finite = false;
  bool unsorted = false;
  bool unknown_file = false;
  Seconds last = trace.requests.empty() ? Seconds{}
                                        : trace.requests.front().arrival;
  for (const auto& r : trace.requests) {
    non_finite |= !std::isfinite(r.arrival.value());
    unsorted |= r.arrival < last;
    unknown_file |= r.file == kInvalidFile || r.file >= files.size();
    last = r.arrival;
  }
  if (non_finite) throw std::invalid_argument(kNonFiniteArrival);
  if (unsorted) throw std::invalid_argument(kUnsorted);
  if (unknown_file) {
    throw std::invalid_argument(
        "run_simulation: trace references unknown file");
  }
  TraceSource source(trace);
  return run_simulation(config, files, source, policy, observer, faults);
}

}  // namespace pr
