// disk_soa.h — structure-of-arrays storage for the per-request-touched
// disk state, plus the shared vocabulary types (DiskSpeed, DiskId,
// DiskLedger) that both the SoA and the Disk facade need.
//
// Why SoA: at fleet scale (10k+ disks) the epoch/finalize passes and the
// DPM fast paths walk *one field* across *every disk* — speed, busy-until,
// energy. With each Disk owning its own fields those walks pointer-chase
// 10k scattered objects; with DiskArraySoA they are linear scans over
// contiguous lanes. The `Disk` class (disk.h) remains the API — it is a
// facade holding a (soa, slot) pair — so policies, tests and benches
// compile unchanged, and the seed-layout golden (test_seed_layout_golden)
// proves the refactor is byte-identical.
#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "disk/geometry.h"
#include "util/units.h"

namespace pr {

enum class DiskSpeed : std::uint8_t { kLow = 0, kHigh = 1 };

[[nodiscard]] constexpr const char* to_string(DiskSpeed s) {
  return s == DiskSpeed::kLow ? "low" : "high";
}

/// Fleet-facing disk index. Kept at 32 bits deliberately: a fleet slot is
/// an array index, and 4G disks is far beyond any simulated fleet, while
/// the narrower type keeps the SoA lanes and event payloads dense.
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

/// Hot disk-array state, one contiguous lane per field. Owned by
/// ArrayContext (shared across its Disk facades) or by a standalone Disk
/// (a 1-slot instance). Lanes are grouped by access frequency:
/// per-request (speed/ready/accounted/ledger), per-transition
/// (day bucketing, history), and positional (head).
struct DiskArraySoA {
  DiskArraySoA() = default;
  explicit DiskArraySoA(std::size_t n) { resize(n); }

  void resize(std::size_t n) {
    speed.assign(n, DiskSpeed::kHigh);
    initial_speed.assign(n, DiskSpeed::kHigh);
    ready_time.assign(n, Seconds{0.0});
    accounted_until.assign(n, Seconds{0.0});
    ledger.assign(n, DiskLedger{});
    current_day.assign(n, 0);
    transitions_in_day.assign(n, 0);
    head.assign(n, 0);
    speed_history.assign(n, {});
  }

  [[nodiscard]] std::size_t size() const { return speed.size(); }

  // --- touched by every request --------------------------------------
  std::vector<DiskSpeed> speed;
  std::vector<Seconds> ready_time;        // earliest start for new work
  std::vector<Seconds> accounted_until;   // ledger coverage watermark
  std::vector<DiskLedger> ledger;

  // --- touched per transition -----------------------------------------
  std::vector<DiskSpeed> initial_speed;
  std::vector<std::int64_t> current_day;
  std::vector<std::uint64_t> transitions_in_day;
  /// Completed speed changes as (finish time, new speed), in order —
  /// input to the optional thermal-lag model (disk/thermal.h).
  std::vector<std::vector<std::pair<Seconds, DiskSpeed>>> speed_history;

  // --- positional mode only -------------------------------------------
  std::vector<Cylinder> head;
};

}  // namespace pr
