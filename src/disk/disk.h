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
// Storage: Disk is a plain value type that holds its own state as members,
// the fields every request touches (speed, ready time, ledger watermark,
// ledger) first. An ArrayContext keeps its disks in one std::vector<Disk>.
// No code scans one field across every disk, so no per-field layout is
// kept beside it.
#pragma once

#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "disk/disk_params.h"
#include "disk/geometry.h"
#include "disk/service_model.h"
#include "util/units.h"

namespace pr {

enum class DiskSpeed : std::uint8_t { kLow = 0, kHigh = 1 };

[[nodiscard]] constexpr const char* to_string(DiskSpeed s) {
  return s == DiskSpeed::kLow ? "low" : "high";
}

/// Fleet-facing disk index. Kept at 32 bits deliberately: a fleet disk is
/// an array index, and 4G disks is far beyond any simulated fleet, while
/// the narrower type keeps event payloads dense.
using DiskId = std::uint32_t;

/// Aggregated per-disk counters for a finished simulation window.
struct DiskLedger {
  Seconds busy_time{0.0};        // positioning + transfer
  Seconds idle_time{0.0};        // spinning, no I/O
  Seconds transition_time{0.0};  // switching speed
  Seconds time_at_low{0.0};      // idle+busy at low speed
  Seconds time_at_high{0.0};     // idle+busy at high speed
  Joules energy{0.0};            // everything: busy + idle + transitions
  std::uint64_t transitions = 0;
  std::uint64_t transitions_up = 0;
  /// Most transitions begun within any single calendar day of the run —
  /// the quantity READ's budget S bounds (§5.2). Unlike
  /// transitions_per_day() below this does not extrapolate, so it is the
  /// right check for multi-day simulations.
  std::uint64_t max_transitions_in_day = 0;
  std::uint64_t requests = 0;
  Bytes bytes_served = 0;
  /// Background/internal I/O (file migrations, cache copies): occupies the
  /// disk and burns energy like any other I/O — it is part of busy_time —
  /// but is counted separately because the paper's response-time metric
  /// covers user requests only.
  std::uint64_t internal_ops = 0;
  Bytes internal_bytes = 0;

  [[nodiscard]] Seconds observed() const {
    return busy_time + idle_time + transition_time;
  }
  /// Fraction of powered-on time spent doing I/O (the paper's §3.3
  /// definition: active time over total power-on time).
  [[nodiscard]] double utilization() const {
    const double total = observed().value();
    return total > 0.0 ? busy_time.value() / total : 0.0;
  }
  /// Speed transitions per day over the observed window.
  [[nodiscard]] double transitions_per_day() const {
    const double days = observed() / kSecondsPerDay;
    return days > 0.0 ? static_cast<double>(transitions) / days : 0.0;
  }
  /// Transition frequency fed to PRESS's frequency-AFR term (Eq. 3).
  /// For windows of at least one simulated day this is the day-bucketed
  /// max_transitions_in_day — the quantity READ's budget S actually bounds.
  /// Sub-day windows fall back to the raw transition count: a 1-hour smoke
  /// run with 2 transitions reports 2, not the 48/day the extrapolating
  /// transitions_per_day() would claim (which inflated the frequency AFR —
  /// nothing observed supports projecting the burst across a full day).
  [[nodiscard]] double press_transitions_per_day() const {
    if (observed() >= kSecondsPerDay) {
      return static_cast<double>(max_transitions_in_day);
    }
    return static_cast<double>(transitions);
  }
};

class Disk {
 public:
  /// A disk at rest in `initial` speed with an empty ledger. Throws
  /// std::invalid_argument when `params` fail validate().
  Disk(DiskId id, const TwoSpeedDiskParams& params, DiskSpeed initial);

  [[nodiscard]] DiskId id() const { return id_; }
  [[nodiscard]] const TwoSpeedDiskParams& params() const { return params_; }

  /// Speed the disk will be in once all scheduled work completes.
  [[nodiscard]] DiskSpeed speed() const { return speed_; }
  /// Earliest time new work can start.
  [[nodiscard]] Seconds ready_time() const { return ready_time_; }

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
  [[nodiscard]] Cylinder head_position() const { return head_; }

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
  [[nodiscard]] Seconds accounted_until() const { return accounted_until_; }

  /// True when the ledger conserves time: busy + idle + transition equals
  /// the accounted horizon, and the per-speed split equals busy + idle,
  /// within floating-point accumulation error of `rel_tol`.
  [[nodiscard]] bool ledger_conserves(double rel_tol = 1e-9) const;

  /// Speed transitions begun in the current sim-day (`now` determines the
  /// day). READ's adaptive threshold (Fig. 6 lines 20-24) consults this.
  [[nodiscard]] std::uint64_t transitions_today(Seconds now) const;
  /// Total transitions ever.
  [[nodiscard]] std::uint64_t total_transitions() const {
    return ledger_.transitions;
  }

  [[nodiscard]] const DiskLedger& ledger() const { return ledger_; }

  /// Time-weighted operating temperature over the window (low/high band
  /// midpoints per §3.2/§3.5; transitions count at the band midpoint).
  [[nodiscard]] Celsius mean_temperature() const;
  /// Hottest sustained operating point the disk was exposed to.
  [[nodiscard]] Celsius max_temperature() const;

  /// Speed the disk started the simulation in.
  [[nodiscard]] DiskSpeed initial_speed() const { return initial_speed_; }
  /// Completed speed changes as (finish time, new speed), in order —
  /// input to the optional thermal-lag model (disk/thermal.h).
  [[nodiscard]] const std::vector<std::pair<Seconds, DiskSpeed>>&
  speed_history() const {
    return speed_history_;
  }

 private:
  void account_idle_until(Seconds t);
  void add_time_at_speed(DiskSpeed s, Seconds dt);
  void note_transition_start(Seconds at);
  /// True once any serve() ran: every serve books a user request or an
  /// internal op.
  [[nodiscard]] bool served_any() const {
    return ledger_.requests + ledger_.internal_ops != 0;
  }
  Seconds serve_impl(Seconds arrival, Bytes bytes, bool internal,
                     std::optional<Cylinder> cylinder);

  // --- touched by every request --------------------------------------
  DiskSpeed speed_;
  Seconds ready_time_{0.0};       // earliest start for new work
  Seconds accounted_until_{0.0};  // ledger coverage watermark
  DiskLedger ledger_;
  ServiceConstants service_[2];  // service_constants() per DiskSpeed

  DiskId id_;
  TwoSpeedDiskParams params_;

  // --- touched per transition -----------------------------------------
  DiskSpeed initial_speed_;
  std::int64_t current_day_ = 0;
  std::uint64_t transitions_in_day_ = 0;
  std::vector<std::pair<Seconds, DiskSpeed>> speed_history_;

  // --- positional mode only -------------------------------------------
  Cylinder head_ = 0;
  std::optional<SeekCurve> seek_curve_;
};

}  // namespace pr
