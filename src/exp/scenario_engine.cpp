#include "exp/scenario_engine.h"

#include <cmath>
#include <memory>
#include <utility>

#include "core/registry.h"
#include "core/session.h"
#include "disk/geometry.h"
#include "fault/degradation_analyzer.h"
#include "fault/fault_plan.h"
#include "press/afr_agreement.h"
#include "press/mttdl_agreement.h"
#include "sim/fleet_sim.h"
#include "trace/stream_reader.h"
#include "trace/trace_reader.h"
#include "trace/trace_stats.h"
#include "util/contracts.h"
#include "util/thread_pool.h"

namespace pr {

namespace {

/// One generated (workload, load, seed) variant, shared by every
/// policy/epoch/disks cell that references it.
struct WorkloadVariant {
  std::size_t workload_idx = 0;
  double load = 1.0;
  std::uint64_t seed = 0;
  FileSet files;
  /// Materialized requests; empty for kind == "source" (cells re-open the
  /// stream instead).
  Trace trace;
  /// Last arrival (fault-plan horizon) — measured during the stats pass
  /// for streaming workloads, so it is valid even when `trace` is empty.
  Seconds horizon{0.0};
  /// Fleet mode only: the resolved synthetic config (files/trace stay
  /// empty — every shard synthesizes its own stream from this template).
  SyntheticWorkloadConfig synth;
};

StreamReaderOptions stream_options(const ScenarioWorkload& w) {
  StreamReaderOptions options;
  if (w.buffer) options.buffer_bytes = *w.buffer;
  return options;
}

struct VariantKey {
  std::size_t workload_idx;
  double load;       // 0 = preset default (resolved during generation)
  bool has_load;
  std::uint64_t seed;
};

/// SplitMix64 finalizer — the same mixer pr::Rng uses for seeding, inlined
/// here to derive one independent plan seed per (base seed, workload seed,
/// rate-scale index, disk count) cell without any ambient entropy.
constexpr std::uint64_t splitmix(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

constexpr std::uint64_t mix_plan_seed(std::uint64_t base,
                                      std::uint64_t workload_seed,
                                      std::uint64_t scale_idx,
                                      std::uint64_t disks) {
  std::uint64_t s = splitmix(base);
  s = splitmix(s ^ workload_seed);
  s = splitmix(s ^ (scale_idx << 32 | disks));
  return s;
}

RedundancyConfig scenario_redundancy_config(const ScenarioSpec& spec) {
  RedundancyConfig config;
  config.kind = scenario_redundancy_kind(spec.redundancy);
  config.group = spec.redundancy.group;
  config.rebuild = spec.redundancy.rebuild;
  config.rebuild_mbps = spec.redundancy.rebuild_mbps;
  config.rebuild_chunk = static_cast<Bytes>(spec.redundancy.rebuild_chunk);
  return config;
}

/// Merge the scripted kill_disk/kill_at fail-stop events into a hazard
/// plan (from_events re-sorts, so ordering vs the drawn events is exact).
FaultPlan with_kills(FaultPlan plan, const ScenarioFault& fault) {
  if (fault.kill_disks.empty()) return plan;
  std::vector<FaultEvent> events = plan.events();
  for (std::size_t i = 0; i < fault.kill_disks.size(); ++i) {
    FaultEvent e;
    e.time = Seconds{fault.kill_at_s[i]};
    e.disk = static_cast<DiskId>(fault.kill_disks[i]);
    e.kind = FaultKind::kFail;
    events.push_back(e);
  }
  return FaultPlan::from_events(std::move(events));
}

std::uint64_t counter_of(const SimResult& sim, const char* name) {
  const auto it = sim.counters.find(name);
  return it == sim.counters.end() ? 0 : it->second;
}

/// Fold the run's redundancy counters plus the MTTDL loop closure into a
/// ScenarioRedundancyCell. `arrays` × `horizon` is the per-array exposure
/// (fleet cells pass shards / the shard horizon); rates are normalized per
/// protection domain — each RAID-5 group, or the whole array under
/// declustered parity where any two overlapping failures collide.
ScenarioRedundancyCell score_redundancy_cell(const ScenarioSpec& spec,
                                             const SimResult& sim,
                                             double injected_afr,
                                             std::size_t array_disks,
                                             std::size_t arrays,
                                             Seconds horizon) {
  ScenarioRedundancyCell r;
  r.scheme = spec.redundancy.scheme;
  r.reconstructed_requests = counter_of(sim, "sim.requests_reconstructed");
  r.data_loss_events = counter_of(sim, "redundancy.data_loss_events");
  r.rebuilds_started = counter_of(sim, "redundancy.rebuilds_started");
  r.rebuilds_completed = counter_of(sim, "redundancy.rebuilds_completed");
  r.mean_rebuild_s =
      static_cast<double>(counter_of(sim, "redundancy.mean_rebuild_ms")) / 1e3;

  const RedundancyKind kind = scenario_redundancy_kind(spec.redundancy);
  const std::size_t group =
      spec.redundancy.group == 0 ? array_disks : spec.redundancy.group;
  MttdlInputs inputs;
  inputs.mttr = Seconds{spec.fault.mttr_s};
  inputs.disk_afr = injected_afr;
  std::size_t domains_per_array = 1;
  if (kind == RedundancyKind::kRaid5) {
    inputs.disks = group;
    domains_per_array = array_disks / group;
  } else {
    inputs.disks = array_disks;  // declustered: one whole-array domain
  }
  const MttdlAgreement agreement = score_mttdl_agreement(
      RaidLevel::kRaid5, inputs, r.data_loss_events,
      arrays * domains_per_array, horizon);
  r.predicted_mttdl_hours = agreement.predicted_mttdl_hours;
  r.predicted_losses_per_year = agreement.predicted_losses_per_year;
  r.observed_losses_per_year = agreement.observed_losses_per_year;
  r.observed_over_predicted = agreement.observed_over_predicted;
  return r;
}

/// One `[fleet]` cell: shards × [system]-disks arrays merged into a single
/// scored report (sim/fleet_sim.h). Composes with [fault] by giving every
/// shard an independent hazard plan derived from the cell's plan seed, and
/// a private DegradationAnalyzer whose metrics fold in shard order.
void run_fleet_cell(const ScenarioSpec& spec, const WorkloadVariant& variant,
                    const PolicyFactory& factory, double epoch_s,
                    std::size_t disks, std::size_t scale_idx,
                    ScenarioCell& cell) {
  SystemConfig config;
  config.sim.disk_count = disks;
  config.sim.epoch = Seconds{epoch_s};
  if (spec.positioned) config.sim.seek_curve = cheetah_seek_curve();
  if (spec.redundancy.enabled) {
    config.sim.redundancy = scenario_redundancy_config(spec);
  }

  FleetConfig fleet;
  fleet.shard = config.sim;
  fleet.shards = spec.fleet.shards;
  fleet.threads = spec.fleet.threads;
  fleet.workload = variant.synth;
  fleet.base_seed = variant.seed;
  fleet.policy = factory;
  cell.disks =
      fleet_disk_count(fleet.shards, static_cast<std::uint32_t>(disks));

  std::vector<std::unique_ptr<DegradationAnalyzer>> analyzers;
  std::function<FaultPlan(std::uint32_t)> make_plan;
  double rate_scale = 0.0;
  Seconds shard_horizon{0.0};
  if (spec.fault.enabled) {
    rate_scale = spec.fault.rate_scales[scale_idx];
    // Hazard plans need a horizon before any shard synthesizes a request;
    // use the expected arrival span of the widest shard (shard 0 carries
    // any remainder request).
    const SyntheticWorkloadConfig shard0 = fleet_shard_workload(fleet, 0);
    shard_horizon = Seconds{shard0.mean_interarrival.value() /
                            shard0.load_factor *
                            static_cast<double>(shard0.request_count)};
    const std::uint64_t cell_seed =
        mix_plan_seed(spec.fault.seed, variant.seed, scale_idx, disks);
    const double afr = spec.fault.afr;
    const Seconds mttr{spec.fault.mttr_s};
    const ScenarioFault fault_spec = spec.fault;
    make_plan = [=](std::uint32_t shard) {
      FaultHazard hazard;
      hazard.seed = fleet_shard_seed(cell_seed, shard);
      hazard.afr = afr;
      hazard.rate_scale = rate_scale;
      hazard.mttr = mttr;
      hazard.horizon = shard_horizon;
      // Scripted kills strike every shard identically (each shard is an
      // independent array experiencing the same operator script).
      return with_kills(FaultPlan::from_hazard(hazard, disks), fault_spec);
    };
    fleet.shard_faults = make_plan;
    analyzers.resize(fleet.shards);
    for (auto& a : analyzers) a = std::make_unique<DegradationAnalyzer>();
    fleet.shard_observer = [&analyzers](std::uint32_t shard) {
      // ObserverList forwards to the caller-owned analyzer, which outlives
      // the shard run so its metrics can fold after the fleet completes.
      auto list = std::make_unique<ObserverList>();
      list->add(*analyzers[shard]);
      return list;
    };
  }

  FleetResult run = run_fleet(fleet);
  cell.report = score(PressModel{config.press}, std::move(run.merged));

  if (spec.fault.enabled) {
    ScenarioFaultCell fault;
    fault.rate_scale = rate_scale;
    fault.injected_afr = spec.fault.afr * rate_scale;
    Seconds downtime{0.0};
    Seconds degraded_window{0.0};
    Seconds recovery_sum{0.0};
    Seconds recovery_max{0.0};
    Seconds rebuild_sum{0.0};
    Seconds rebuild_max{0.0};
    std::uint64_t recoveries = 0;
    std::uint64_t rebuilds_completed = 0;
    bool any_faults = false;
    for (std::uint32_t s = 0; s < fleet.shards; ++s) {
      const DegradationAnalyzer& a = *analyzers[s];
      fault.failures += a.failures();
      fault.lost_requests += a.lost_requests();
      fault.degraded_requests += a.redirected_requests() + a.slowed_requests();
      downtime += a.total_downtime();
      // Shards are independent arrays, so the fleet "window" is the sum of
      // per-array degraded windows (a wall-clock union across rooms would
      // be meaningless).
      degraded_window += a.degraded_window();
      recoveries += a.recoveries();
      recovery_sum += Seconds{a.mean_recovery_time().value() *
                              static_cast<double>(a.recoveries())};
      recovery_max = std::max(recovery_max, a.max_recovery_time());
      rebuilds_completed += a.rebuilds_completed();
      rebuild_sum += Seconds{a.mean_rebuild_time().value() *
                             static_cast<double>(a.rebuilds_completed())};
      rebuild_max = std::max(rebuild_max, a.max_rebuild_time());
      if (!any_faults && !make_plan(s).empty()) any_faults = true;
    }
    fault.downtime_s = downtime.value();
    fault.degraded_window_s = degraded_window.value();
    const Seconds mean_recovery =
        recoveries == 0
            ? Seconds{0.0}
            : Seconds{recovery_sum.value() / static_cast<double>(recoveries)};
    fault.mean_recovery_s = mean_recovery.value();
    // Same counter names and ms rounding DegradationAnalyzer::merge_into
    // uses, written once with the fleet-level aggregates; rate-scale-0
    // cells (all plans empty) stay byte-identical to fault-free runs.
    if (any_faults) {
      const auto ms = [](Seconds t) {
        return static_cast<std::uint64_t>(std::llround(t.value() * 1e3));
      };
      auto& counters = cell.report.sim.counters;
      counters["fault.downtime_ms"] += ms(downtime);
      counters["fault.degraded_window_ms"] += ms(degraded_window);
      counters["fault.mean_recovery_ms"] += ms(mean_recovery);
      counters["fault.max_recovery_ms"] += ms(recovery_max);
      if (rebuilds_completed > 0) {
        const Seconds mean_rebuild{rebuild_sum.value() /
                                   static_cast<double>(rebuilds_completed)};
        counters["redundancy.mean_rebuild_ms"] += ms(mean_rebuild);
        counters["redundancy.max_rebuild_ms"] += ms(rebuild_max);
      }
    }
    const AfrAgreement agreement = score_afr_agreement(
        cell.report.array_afr, fault.injected_afr, fault.failures,
        cell.disks, shard_horizon);
    fault.observed_afr = agreement.observed_afr;
    fault.press_over_injected = agreement.predicted_over_injected;
    fault.press_over_observed = agreement.predicted_over_observed;
    cell.fault = fault;
  }
  if (spec.redundancy.enabled) {
    cell.redundancy =
        score_redundancy_cell(spec, cell.report.sim, spec.fault.afr * rate_scale,
                              disks, fleet.shards, shard_horizon);
  }
}

}  // namespace

ScenarioResult run_scenario(const ScenarioSpec& spec) {
  validate_scenario(spec);

  // Default workload when the spec names none: the paper's light day.
  std::vector<ScenarioWorkload> workloads = spec.workloads;
  if (workloads.empty()) workloads.push_back(ScenarioWorkload{});

  // ---- expand the (workload, load, seed) axis -----------------------
  std::vector<VariantKey> variant_keys;
  for (std::size_t wi = 0; wi < workloads.size(); ++wi) {
    const ScenarioWorkload& w = workloads[wi];
    if (w.kind == "trace" || w.kind == "source") {
      // A fixed trace has no load/seed degrees of freedom.
      variant_keys.push_back({wi, 1.0, false, 0});
      continue;
    }
    if (w.loads.empty()) {
      for (const std::uint64_t seed : spec.seeds) {
        variant_keys.push_back({wi, 0.0, false, seed});
      }
    } else {
      for (const double load : w.loads) {
        for (const std::uint64_t seed : spec.seeds) {
          variant_keys.push_back({wi, load, true, seed});
        }
      }
    }
  }

  ThreadPool pool(spec.threads);

  // ---- generate every variant (indexed writes keep this deterministic
  // regardless of completion order) -----------------------------------
  std::vector<WorkloadVariant> variants(variant_keys.size());
  pool.parallel_for(variant_keys.size(), [&](std::size_t i) {
    const VariantKey& key = variant_keys[i];
    const ScenarioWorkload& w = workloads[key.workload_idx];
    WorkloadVariant v;
    v.workload_idx = key.workload_idx;
    v.seed = key.seed;
    if (w.kind == "trace") {
      v.trace = trace::open_trace(w.path);
      v.files = FileSet::from_trace_stats(compute_trace_stats(v.trace));
      v.load = 1.0;
      v.horizon = v.trace.empty() ? Seconds{0.0}
                                  : v.trace.requests.back().arrival;
    } else if (w.kind == "source") {
      // Streaming stats pass: measure the file universe and the fault
      // horizon without ever materializing the trace.
      auto probe = trace::open(w.path, stream_options(w));
      TraceStatsAccumulator stats;
      Request r;
      while (probe->next(r)) stats.add(r);
      v.files = FileSet::from_trace_stats(stats.finalize());
      v.load = 1.0;
      v.horizon = stats.last_arrival();
    } else {
      SyntheticWorkloadConfig config = preset_workload_config(w.preset, key.seed);
      if (w.files) config.file_count = *w.files;
      if (w.requests) config.request_count = *w.requests;
      if (w.zipf_alpha) config.zipf_alpha = *w.zipf_alpha;
      if (w.burstiness) config.burstiness = *w.burstiness;
      if (w.diurnal_depth) config.diurnal_depth = *w.diurnal_depth;
      if (key.has_load) config.load_factor = key.load;
      v.load = config.load_factor;
      if (spec.fleet.enabled) {
        // Fleet cells never materialize the fleet-total trace; shards
        // synthesize their slices on pull inside run_fleet.
        v.synth = config;
      } else {
        auto workload = generate_workload(config);
        v.files = std::move(workload.files);
        v.trace = std::move(workload.trace);
        v.horizon = v.trace.empty() ? Seconds{0.0}
                                    : v.trace.requests.back().arrival;
      }
    }
    variants[i] = std::move(v);
  });

  // ---- resolve policy factories once (validates names + params before
  // any simulation time is spent) --------------------------------------
  std::vector<PolicyFactory> factories;
  factories.reserve(spec.policies.size());
  for (const ScenarioPolicy& p : spec.policies) {
    factories.push_back(policies::make(p.name, p.params));
  }

  // ---- enumerate cells in spec order: policy-major, then workload/
  // load/seed (variant order), then epoch, then disks, then fault rate
  // scale (a degenerate single-pass axis when no [fault] section) -------
  const std::size_t scale_count =
      spec.fault.enabled ? spec.fault.rate_scales.size() : 1;
  struct CellSpec {
    std::size_t policy_idx;
    std::size_t variant_idx;
    double epoch_s;
    std::size_t disks;
    std::size_t scale_idx;
  };
  std::vector<CellSpec> cell_specs;
  cell_specs.reserve(spec.policies.size() * variants.size() *
                     spec.epochs.size() * spec.disks.size() * scale_count);
  for (std::size_t pi = 0; pi < spec.policies.size(); ++pi) {
    for (std::size_t vi = 0; vi < variants.size(); ++vi) {
      for (const double epoch_s : spec.epochs) {
        for (const std::size_t disks : spec.disks) {
          for (std::size_t si = 0; si < scale_count; ++si) {
            cell_specs.push_back({pi, vi, epoch_s, disks, si});
          }
        }
      }
    }
  }

  ScenarioResult result;
  result.scenario = spec.name;
  result.faulted = spec.fault.enabled;
  result.redundant = spec.redundancy.enabled;
  result.controlled = spec.control.enabled;
  result.cells.resize(cell_specs.size());
  pool.parallel_for(cell_specs.size(), [&](std::size_t i) {
    const CellSpec& cs = cell_specs[i];
    const WorkloadVariant& variant = variants[cs.variant_idx];
    const ScenarioWorkload& workload_spec = workloads[variant.workload_idx];
    const ScenarioPolicy& policy_spec = spec.policies[cs.policy_idx];
    const bool streamed = workload_spec.kind == "source";

    SystemConfig config;
    config.sim.disk_count = cs.disks;
    config.sim.epoch = Seconds{cs.epoch_s};
    if (spec.positioned) config.sim.seek_curve = cheetah_seek_curve();
    if (spec.redundancy.enabled) {
      config.sim.redundancy = scenario_redundancy_config(spec);
    }
    if (spec.control.enabled) {
      config.sim.control = spec.control.config;
      config.sim.control.enabled = true;
    }

    auto policy = factories[cs.policy_idx]();
    ScenarioCell cell;
    cell.policy = policy_spec.display_label();
    cell.workload = workloads[variant.workload_idx].name;
    cell.load = variant.load;
    cell.seed = variant.seed;
    cell.epoch_s = cs.epoch_s;
    cell.disks = cs.disks;
    if (spec.fleet.enabled) {
      run_fleet_cell(spec, variant, factories[cs.policy_idx], cs.epoch_s,
                     cs.disks, cs.scale_idx, cell);
      result.cells[i] = std::move(cell);
      return;
    }
    // Streaming workloads re-open the source for each cell; sources are
    // single-pass, so a shared one could not serve the whole grid.
    std::unique_ptr<RequestSource> cell_source;
    SimulationSession session(config);
    if (streamed) {
      cell_source = trace::open(workload_spec.path,
                                stream_options(workload_spec));
      session.with_source(variant.files, *cell_source);
    } else {
      session.with_workload(variant.files, variant.trace);
    }
    if (!spec.fault.enabled) {
      cell.report = session.with_policy(*policy).run();
    } else {
      // Each cell gets its own deterministic hazard plan over the trace's
      // arrival span; a 0 rate scale yields the empty plan, which is
      // byte-identical to the fault-free path.
      const double rate_scale = spec.fault.rate_scales[cs.scale_idx];
      const Seconds horizon = variant.horizon;
      FaultHazard hazard;
      hazard.seed = mix_plan_seed(spec.fault.seed, variant.seed,
                                  cs.scale_idx, cs.disks);
      hazard.afr = spec.fault.afr;
      hazard.rate_scale = rate_scale;
      hazard.mttr = Seconds{spec.fault.mttr_s};
      hazard.horizon = horizon;
      const FaultPlan plan =
          with_kills(FaultPlan::from_hazard(hazard, cs.disks), spec.fault);

      DegradationAnalyzer analyzer;
      cell.report = session.with_policy(std::move(policy))
                        .with_observer(analyzer)
                        .with_faults(plan)
                        .run();
      // Only a non-empty plan adds the fault.* duration counters —
      // rate-scale-0 cells must stay byte-identical to fault-free runs
      // (the same rule the simulator applies to its fault counters).
      if (!plan.empty()) analyzer.merge_into(cell.report.sim);

      ScenarioFaultCell fault;
      fault.rate_scale = rate_scale;
      fault.injected_afr = spec.fault.afr * rate_scale;
      fault.failures = analyzer.failures();
      fault.lost_requests = analyzer.lost_requests();
      fault.degraded_requests =
          analyzer.redirected_requests() + analyzer.slowed_requests();
      fault.downtime_s = analyzer.total_downtime().value();
      fault.degraded_window_s = analyzer.degraded_window().value();
      fault.mean_recovery_s = analyzer.mean_recovery_time().value();
      const AfrAgreement agreement =
          score_afr_agreement(cell.report.array_afr, fault.injected_afr,
                              fault.failures, cs.disks, horizon);
      fault.observed_afr = agreement.observed_afr;
      fault.press_over_injected = agreement.predicted_over_injected;
      fault.press_over_observed = agreement.predicted_over_observed;
      cell.fault = fault;
    }
    if (spec.redundancy.enabled) {
      const double injected_afr =
          spec.fault.enabled
              ? spec.fault.afr * spec.fault.rate_scales[cs.scale_idx]
              : 0.0;
      cell.redundancy = score_redundancy_cell(
          spec, cell.report.sim, injected_afr, cs.disks, 1, variant.horizon);
    }
    if (spec.control.enabled) {
      ScenarioControlCell control;
      control.updates = counter_of(cell.report.sim, "control.updates");
      control.shed_requests =
          counter_of(cell.report.sim, "control.shed_requests");
      control.h_scaled = counter_of(cell.report.sim, "control.h_scaled");
      control.hot_grows = counter_of(cell.report.sim, "control.hot_grows");
      control.hot_shrinks =
          counter_of(cell.report.sim, "control.hot_shrinks");
      control.epoch_scaled =
          counter_of(cell.report.sim, "control.epoch_scaled");
      cell.control = control;
    }
    result.cells[i] = std::move(cell);
  });
#if PR_CONTRACTS_ENABLED
  // Every cell slot must have been filled by exactly the worker that owns
  // its index — an empty policy label means a task died without writing.
  for (const ScenarioCell& c : result.cells) {
    PR_INVARIANT(!c.policy.empty(),
                 "run_scenario: cell left unfilled by its worker");
  }
#endif
  return result;
}

}  // namespace pr
