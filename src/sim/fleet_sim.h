// fleet_sim.h — sharded fleet simulation: thousands of disks, hundreds of
// millions of requests, deterministic to the byte regardless of thread
// count.
//
// Model: a fleet is `shards` independent arrays of `shard.disk_count`
// disks each. Arrays do not share files or traffic (the paper's arrays are
// self-contained; a fleet is a building full of them), so shards simulate
// embarrassingly parallel on util/thread_pool and their SimResults merge
// afterwards. Determinism discipline is the scenario engine's, applied
// inside one run: every shard writes only its own indexed slot, per-shard
// seeds are SplitMix64-derived from the fleet base seed (never from thread
// identity), and the merge folds strictly in shard order — so threads=1
// and threads=N produce byte-identical merged results, counters, CSV and
// per-shard JSONL (test_fleet pins this).
//
// Fleet disk ids are `shard * disks_per_shard + local`, kept in 32 bits
// (DiskId) with an overflow-checked constructor (fleet_disk_count).
//
// Workload: each shard gets an independent synthetic stream — the config's
// request_count is the *fleet total*, split evenly across shards (first
// `total % shards` shards take one extra). Shards synthesize requests on
// pull (SyntheticSource: bounded memory at any fleet size).
#pragma once

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <memory>
#include <vector>

#include "fault/fault_plan.h"
#include "obs/observer.h"
#include "obs/time_series.h"
#include "sim/array_sim.h"
#include "sim/metrics.h"
#include "workload/synthetic.h"

namespace pr {

/// SplitMix64 finalizer (the same mixer pr::Rng and the scenario engine's
/// plan seeds use) — exposed so tests can predict per-shard seeds.
[[nodiscard]] constexpr std::uint64_t fleet_splitmix(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

/// Shard `shard`'s independent workload seed, derived from the fleet base
/// seed. Pure function of (base, shard) — never of thread identity.
[[nodiscard]] constexpr std::uint64_t fleet_shard_seed(std::uint64_t base,
                                                       std::uint64_t shard) {
  return fleet_splitmix(fleet_splitmix(base) ^ shard);
}

/// Checked fleet geometry: `shards * disks_per_shard` as a DiskId, or
/// std::invalid_argument when either factor is zero or the product leaves
/// the 32-bit id space (kInvalidDisk is reserved). Every fleet-facing
/// entry point sizes through this, so >4096-disk configs that used to
/// overflow int-typed indices fail loudly instead.
[[nodiscard]] std::uint32_t fleet_disk_count(std::uint32_t shards,
                                             std::uint32_t disks_per_shard);

struct FleetConfig {
  /// Per-shard array configuration; `shard.disk_count` is disks PER SHARD.
  SimConfig shard;
  std::uint32_t shards = 1;
  /// Worker threads for the shard fan-out: 1 (default) runs inline on the
  /// caller's thread, 0 = hardware concurrency, N = N workers. The thread
  /// count is a throughput knob only — results are byte-identical.
  unsigned threads = 1;
  /// Synthetic workload template. `workload.request_count` is the fleet
  /// total (split across shards); `workload.seed` is ignored in favour of
  /// fleet_shard_seed(base_seed, shard).
  SyntheticWorkloadConfig workload;
  std::uint64_t base_seed = 42;
  /// Policy factory — one fresh instance per shard (policies hold
  /// per-array state, so sharing one across shards would corrupt both).
  std::function<std::unique_ptr<Policy>()> policy;
  /// Optional per-shard fault plan (composes [fault] with [fleet]). Called
  /// once per shard, possibly concurrently — must be a pure function of
  /// the shard index.
  std::function<FaultPlan(std::uint32_t shard)> shard_faults;
  /// Optional per-shard observer factory (JSONL writers, recorders, ...).
  /// Same purity/concurrency contract as shard_faults; the observer lives
  /// for exactly that shard's run.
  std::function<std::unique_ptr<SimObserver>(std::uint32_t shard)>
      shard_observer;
};

struct FleetResult {
  /// Shard-order merge of every shard's SimResult: scalars summed,
  /// horizon/max'd, response-time stats Welford-merged, the percentile
  /// reservoir folded deterministically, ledgers/telemetry concatenated
  /// (fleet disk id = shard * disks_per_shard + local), counters summed
  /// by name. Scoreable by PressModel like any single-array result.
  SimResult merged;
  /// The unmerged per-shard results, in shard order.
  std::vector<SimResult> shards;
  std::uint32_t shard_count = 0;
  std::uint32_t disks_per_shard = 0;

  [[nodiscard]] std::uint32_t fleet_disks() const {
    return shard_count * disks_per_shard;
  }
};

/// The per-shard workload config run_fleet() uses for shard `shard` —
/// exposed so callers (benchmarks, tests) can reproduce a single shard's
/// stream exactly.
[[nodiscard]] SyntheticWorkloadConfig fleet_shard_workload(
    const FleetConfig& config, std::uint32_t shard);

/// Run the fleet, synthesizing each shard's requests on pull (bounded
/// memory at any fleet size). Throws std::invalid_argument for bad
/// geometry and std::logic_error when no policy factory is set.
[[nodiscard]] FleetResult run_fleet(const FleetConfig& config);

/// Fleet-wide windowed telemetry merged from per-shard recorders: window
/// `w` of fleet disk `s * disks_per_shard + d` is `shards[s]->at(w, d)`.
/// Shards may materialize different window counts (a quiet shard's run
/// ends earlier); short shards read as zero samples in the tail windows.
struct FleetTimeSeries {
  Seconds window{60.0};
  std::uint32_t disks = 0;
  /// windows[w][fleet disk]
  std::vector<std::vector<WindowSample>> windows;

  /// Same long-form schema as TimeSeriesRecorder::write_csv.
  void write_csv(std::ostream& out) const;
};

/// Merge per-shard recorders by window (all must share the same window
/// length and disks_per_shard disk count; std::invalid_argument
/// otherwise).
[[nodiscard]] FleetTimeSeries merge_time_series(
    const std::vector<const TimeSeriesRecorder*>& shards,
    std::uint32_t disks_per_shard);

}  // namespace pr
