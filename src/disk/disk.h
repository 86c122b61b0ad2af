// disk.h — simulation state machine for one 2-speed disk.
//
// The disk serves whole-file requests FCFS, can switch speed (no request is
// served during a transition, §4), and keeps a complete energy/occupancy
// ledger: every instant of simulated time is attributed to exactly one of
// {idle@speed, busy@speed, transitioning}, which the tests verify sums to
// the simulation horizon. All ESRRA telemetry the PRESS model needs —
// utilization, speed-transition frequency, operating temperature exposure —
// falls out of this ledger.
//
// Storage: since the fleet-scale refactor, Disk is a *facade* over a
// DiskArraySoA slot (disk/disk_soa.h). An ArrayContext owns one SoA for
// its whole array and binds each Disk to a slot; the standalone
// constructor (tests, benches, ad-hoc use) owns a private 1-slot SoA so
// the historical value-type API keeps working. The seed-layout golden
// pins this refactor byte-identical to the pre-SoA AoS layout.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "disk/disk_params.h"
#include "disk/disk_soa.h"
#include "disk/geometry.h"
#include "disk/service_model.h"
#include "util/units.h"

namespace pr {

class Disk {
 public:
  /// Standalone disk owning its own 1-slot SoA (tests/benches).
  Disk(DiskId id, const TwoSpeedDiskParams& params, DiskSpeed initial);
  /// Facade over `soa` slot `slot` (fleet/array use; `soa` must outlive
  /// the facade and already be sized past `slot`).
  Disk(DiskArraySoA& soa, std::uint32_t slot, DiskId id,
       const TwoSpeedDiskParams& params, DiskSpeed initial);

  Disk(Disk&&) noexcept = default;
  Disk& operator=(Disk&&) noexcept = default;

  [[nodiscard]] DiskId id() const { return id_; }
  [[nodiscard]] const TwoSpeedDiskParams& params() const { return params_; }

  /// Speed the disk will be in once all scheduled work completes.
  [[nodiscard]] DiskSpeed speed() const { return soa_->speed[slot_]; }
  /// Earliest time new work can start.
  [[nodiscard]] Seconds ready_time() const { return soa_->ready_time[slot_]; }

  /// Serve a whole-file request arriving at `arrival`; returns completion
  /// time (start delayed by queueing/transitions, FCFS). `internal` marks
  /// background I/O (migration/copy traffic) that should not count as a
  /// user request.
  Seconds serve(Seconds arrival, Bytes bytes, bool internal = false);

  /// Positional variant (requires a seek curve, see set_seek_curve):
  /// positioning cost is the seek from the current head cylinder to
  /// `cylinder` plus average rotational latency; the head parks at the
  /// target afterwards. Falls back to serve() when no curve is set.
  Seconds serve_positioned(Seconds arrival, Bytes bytes, Cylinder cylinder,
                           bool internal = false);

  /// Install a seek curve enabling positional service (DiskSim-style
  /// fidelity; see disk/geometry.h). Only legal before the simulation
  /// starts accounting time.
  void set_seek_curve(const SeekCurve& curve);
  [[nodiscard]] bool positioned() const { return seek_curve_.has_value(); }
  [[nodiscard]] Cylinder head_position() const { return soa_->head[slot_]; }

  /// Switch to `target`, starting no earlier than `at` and after queued
  /// work completes; returns the time the transition finishes. A request to
  /// switch to the current speed is a no-op (no cost, no count).
  Seconds transition(Seconds at, DiskSpeed target);

  /// Set the speed the disk *starts* the simulation in — free, uncounted.
  /// Only legal before any time has been accounted (throws
  /// std::logic_error otherwise); policies use it during initialize().
  void set_initial_speed(DiskSpeed speed);

  /// Close the ledger at simulation end (accounts trailing idle time).
  void finish(Seconds end);

  /// Instant up to which every moment of simulated time has been
  /// attributed to the ledger. Exposed for the PR_INVARIANT conservation
  /// checks at epoch boundaries (every ledger bucket must sum back to
  /// exactly this much time).
  [[nodiscard]] Seconds accounted_until() const {
    return soa_->accounted_until[slot_];
  }

  /// True when the ledger conserves time: busy + idle + transition equals
  /// the accounted horizon, and the per-speed split equals busy + idle,
  /// within floating-point accumulation error of `rel_tol`.
  [[nodiscard]] bool ledger_conserves(double rel_tol = 1e-9) const;

  /// Speed transitions begun in the current sim-day (`now` determines the
  /// day). READ's adaptive threshold (Fig. 6 lines 20-24) consults this.
  [[nodiscard]] std::uint64_t transitions_today(Seconds now) const;
  /// Total transitions ever.
  [[nodiscard]] std::uint64_t total_transitions() const {
    return soa_->ledger[slot_].transitions;
  }

  [[nodiscard]] const DiskLedger& ledger() const {
    return soa_->ledger[slot_];
  }

  /// Time-weighted operating temperature over the window (low/high band
  /// midpoints per §3.2/§3.5; transitions count at the band midpoint).
  [[nodiscard]] Celsius mean_temperature() const;
  /// Hottest sustained operating point the disk was exposed to.
  [[nodiscard]] Celsius max_temperature() const;

  /// Speed the disk started the simulation in.
  [[nodiscard]] DiskSpeed initial_speed() const {
    return soa_->initial_speed[slot_];
  }
  /// Completed speed changes as (finish time, new speed), in order —
  /// input to the optional thermal-lag model (disk/thermal.h).
  [[nodiscard]] const std::vector<std::pair<Seconds, DiskSpeed>>&
  speed_history() const {
    return soa_->speed_history[slot_];
  }

 private:
  void account_idle_until(Seconds t);
  void add_time_at_speed(DiskSpeed s, Seconds dt);
  void note_transition_start(Seconds at);
  /// True once any serve() ran: every serve books a user request or an
  /// internal op.
  [[nodiscard]] bool served_any() const {
    const DiskLedger& l = soa_->ledger[slot_];
    return l.requests + l.internal_ops != 0;
  }
  Seconds serve_impl(Seconds arrival, Bytes bytes, bool internal,
                     std::optional<Cylinder> cylinder);

  /// Set iff this disk owns its storage (standalone constructor); the
  /// facade constructor leaves it null. soa_ always points at the live
  /// storage (owned_.get() or the ArrayContext's shared SoA) and the heap
  /// allocation is address-stable across moves.
  std::unique_ptr<DiskArraySoA> owned_;
  DiskArraySoA* soa_;
  std::uint32_t slot_;

  DiskId id_;
  TwoSpeedDiskParams params_;

  // optional positional model (per-disk, cold)
  std::optional<SeekCurve> seek_curve_;
};

}  // namespace pr
