// scenario_engine.h — expands a ScenarioSpec into concrete cells
// (policy × workload × load × seed × epoch × disks × fault rate scale)
// and fans them across the thread pool — the library's one sweep engine.
// Axes are declarative and arbitrary: each (workload, load, seed) variant
// is generated once and shared by every policy/epoch/disk cell, and
// results come back in *spec order* — policy-major, then workload, load,
// seed, epoch, disks — regardless of thread count, so serialized output is
// byte-identical for threads = 1 and threads = N.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "core/system.h"
#include "exp/scenario.h"

namespace pr {

/// Fault-axis results for one cell of a `[fault]`-enabled scenario
/// (DegradationAnalyzer metrics plus the PRESS-vs-injected agreement
/// scores from press/afr_agreement.h). Durations are plain seconds so
/// the report layer can print them without unit plumbing.
struct ScenarioFaultCell {
  double rate_scale = 0.0;     ///< swept multiplier on the base AFR
  double injected_afr = 0.0;   ///< afr × rate_scale (fraction/year)
  std::uint64_t failures = 0;  ///< fail-stop faults that struck
  std::uint64_t lost_requests = 0;
  std::uint64_t degraded_requests = 0;  ///< redirected + slowed
  double downtime_s = 0.0;              ///< per-disk down intervals, summed
  double degraded_window_s = 0.0;       ///< wall-clock union, >= 1 disk down
  double mean_recovery_s = 0.0;
  double observed_afr = 0.0;  ///< failures per disk-year of exposure
  double press_over_injected = 0.0;
  double press_over_observed = 0.0;
};

/// Redundancy-layer results for one cell of a `[redundancy]`-enabled
/// scenario: what parity actually bought (reconstructed reads, data-loss
/// events, rebuild completions) plus the closed-form loop closure
/// (press/mttdl_agreement.h). Rates are per *protection domain* year — a
/// RAID-5 group or, for declustered parity, the whole array — so the
/// prediction and the observation live in the same unit regardless of
/// group size.
struct ScenarioRedundancyCell {
  std::string scheme;  ///< "raid5" | "declustered"
  std::uint64_t reconstructed_requests = 0;
  std::uint64_t data_loss_events = 0;
  std::uint64_t rebuilds_started = 0;
  std::uint64_t rebuilds_completed = 0;
  double mean_rebuild_s = 0.0;
  double predicted_mttdl_hours = 0.0;  ///< closed form, per domain
  double predicted_losses_per_year = 0.0;  ///< per domain-year
  double observed_losses_per_year = 0.0;   ///< per domain-year
  double observed_over_predicted = 0.0;    ///< 0 when prediction is 0-rate
};

/// Control-loop results for one cell of a `[control]`-enabled scenario:
/// what the feedback controllers actually did (the simulator's control.*
/// counters, verbatim).
struct ScenarioControlCell {
  std::uint64_t updates = 0;        ///< epoch windows folded
  std::uint64_t shed_requests = 0;  ///< dropped by the admission window
  std::uint64_t h_scaled = 0;       ///< boundaries that rescaled DPM H
  std::uint64_t hot_grows = 0;      ///< hot-zone disks added
  std::uint64_t hot_shrinks = 0;    ///< hot-zone disks removed
  std::uint64_t epoch_scaled = 0;   ///< boundaries that resized the epoch
};

/// One completed grid point. The axis fields echo the spec values that
/// produced the cell (trace workloads report load = 1 and seed = 0: the
/// axes do not apply to a fixed trace).
struct ScenarioCell {
  std::string policy;    ///< policy display label
  std::string workload;  ///< workload name
  double load = 1.0;
  std::uint64_t seed = 0;
  double epoch_s = 0.0;
  std::size_t disks = 0;
  SystemReport report;
  /// Present iff the spec had a `[fault]` section (rate_scale 0 cells
  /// included — their plan is empty and the metrics are all zero).
  std::optional<ScenarioFaultCell> fault;
  /// Present iff the spec had a `[redundancy]` section. All-zero (beyond
  /// the prediction) without a `[fault]` section: parity only acts when
  /// failures strike.
  std::optional<ScenarioRedundancyCell> redundancy;
  /// Present iff the spec had a `[control]` section.
  std::optional<ScenarioControlCell> control;
};

struct ScenarioResult {
  std::string scenario;
  /// True when the spec had a `[fault]` section; the report layer widens
  /// the CSV schema with the fault columns exactly in this case.
  bool faulted = false;
  /// True when the spec had a `[redundancy]` section; the report layer
  /// appends the redundancy columns exactly in this case.
  bool redundant = false;
  /// True when the spec had a `[control]` section; the report layer
  /// appends the control columns exactly in this case.
  bool controlled = false;
  std::vector<ScenarioCell> cells;  ///< spec order (policy-major)
};

/// Validate `spec`, generate its workload variants, run every cell through
/// the ThreadPool and return deterministically ordered results. Throws
/// std::invalid_argument for spec problems and propagates workload/trace
/// I/O errors.
[[nodiscard]] ScenarioResult run_scenario(const ScenarioSpec& spec);

}  // namespace pr
