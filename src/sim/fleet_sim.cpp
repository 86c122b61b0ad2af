#include "sim/fleet_sim.h"

#include <algorithm>
#include <limits>
#include <ostream>
#include <stdexcept>
#include <string>

#include "util/classic_locale.h"
#include "util/contracts.h"
#include "util/fmt.h"
#include "util/thread_pool.h"

namespace pr {

namespace {

/// Fold one shard's result into the fleet accumulator. Strictly
/// sequential in shard order — Welford merges and the reservoir fold are
/// order-sensitive, and shard order is the byte contract.
void fold_shard(SimResult& fleet, const SimResult& shard) {
  fleet.response_time.merge(shard.response_time);
  fleet.response_time_sample.merge(shard.response_time_sample);
  fleet.total_energy += shard.total_energy;
  fleet.horizon = std::max(fleet.horizon, shard.horizon);
  fleet.user_requests += shard.user_requests;
  fleet.migrations += shard.migrations;
  fleet.migration_bytes += shard.migration_bytes;
  fleet.total_transitions += shard.total_transitions;
  fleet.max_transitions_per_day =
      std::max(fleet.max_transitions_per_day, shard.max_transitions_per_day);
  fleet.ledgers.insert(fleet.ledgers.end(), shard.ledgers.begin(),
                       shard.ledgers.end());
  fleet.telemetry.insert(fleet.telemetry.end(), shard.telemetry.begin(),
                         shard.telemetry.end());
  for (const auto& [name, value] : shard.counters) {
    fleet.counters[name] += value;
  }
}

void validate_fleet(const FleetConfig& config) {
  if (config.shard.disk_count >
      std::numeric_limits<std::uint32_t>::max()) {
    throw std::invalid_argument("run_fleet: disks_per_shard exceeds DiskId");
  }
  // Throws on zero factors / DiskId overflow.
  (void)fleet_disk_count(config.shards,
                         static_cast<std::uint32_t>(config.shard.disk_count));
  if (!config.policy) {
    throw std::logic_error("run_fleet: no policy factory configured");
  }
}

SimResult run_shard(const FleetConfig& config, std::uint32_t shard) {
  auto policy = config.policy();
  FaultPlan plan;
  const FaultPlan* faults = nullptr;
  if (config.shard_faults) {
    plan = config.shard_faults(shard);
    faults = &plan;
  }
  std::unique_ptr<SimObserver> observer;
  if (config.shard_observer) observer = config.shard_observer(shard);
  SyntheticSource source(fleet_shard_workload(config, shard));
  return run_simulation(config.shard, source.files(), source, *policy,
                        observer.get(), faults);
}

FleetResult merge_results(const FleetConfig& config,
                          std::vector<SimResult>&& results) {
  FleetResult fleet;
  fleet.shard_count = config.shards;
  fleet.disks_per_shard = static_cast<std::uint32_t>(config.shard.disk_count);
  fleet.shards = std::move(results);
  fleet.merged.policy_name = fleet.shards.front().policy_name;
  for (const SimResult& shard : fleet.shards) {
    fold_shard(fleet.merged, shard);
  }
  PR_INVARIANT(fleet.merged.ledgers.size() == fleet.fleet_disks(),
               "run_fleet: merged ledger count != fleet disk count");
  return fleet;
}

}  // namespace

std::uint32_t fleet_disk_count(std::uint32_t shards,
                               std::uint32_t disks_per_shard) {
  if (shards == 0 || disks_per_shard == 0) {
    throw std::invalid_argument("fleet_disk_count: zero shards or disks");
  }
  const std::uint64_t total =
      static_cast<std::uint64_t>(shards) * disks_per_shard;
  if (total >= kInvalidDisk) {
    throw std::invalid_argument(
        "fleet_disk_count: " + std::to_string(total) +
        " disks overflows the 32-bit DiskId space");
  }
  return static_cast<std::uint32_t>(total);
}

SyntheticWorkloadConfig fleet_shard_workload(const FleetConfig& config,
                                             std::uint32_t shard) {
  SyntheticWorkloadConfig wc = config.workload;
  const std::size_t base = config.workload.request_count / config.shards;
  const std::size_t extra =
      shard < config.workload.request_count % config.shards ? 1 : 0;
  wc.request_count = base + extra;
  wc.seed = fleet_shard_seed(config.base_seed, shard);
  return wc;
}

FleetResult run_fleet(const FleetConfig& config) {
  validate_fleet(config);
  // Fan shards across the pool (threads != 1) or run them inline
  // (threads == 1); indexed writes make completion order irrelevant.
  std::vector<SimResult> results(config.shards);
  if (config.threads == 1) {
    for (std::uint32_t s = 0; s < config.shards; ++s) {
      results[s] = run_shard(config, s);
    }
  } else {
    ThreadPool pool(config.threads, config.shards);
    pool.parallel_for(config.shards, [&](std::size_t s) {
      results[s] = run_shard(config, static_cast<std::uint32_t>(s));
    });
  }
  return merge_results(config, std::move(results));
}

void FleetTimeSeries::write_csv(std::ostream& out) const {
  out << "window,start_s,disk,requests,bytes,busy_s,utilization,energy_j,"
         "max_backlog_s,transitions_up,transitions_down,high_speed_fraction,"
         "migrations_in,migrations_out,degraded,lost\n";
  const ClassicLocaleScope classic(out);
  const auto full = [](double v) { return format_double(v, 17); };
  for (std::size_t w = 0; w < windows.size(); ++w) {
    const double start = static_cast<double>(w) * window.value();
    for (std::size_t d = 0; d < windows[w].size(); ++d) {
      const WindowSample& s = windows[w][d];
      out << w << ',' << full(start) << ',' << d << ',' << s.requests << ','
          << s.bytes << ',' << full(s.busy.value()) << ','
          << full(s.utilization(window)) << ',' << full(s.energy.value())
          << ',' << full(s.max_backlog.value()) << ',' << s.transitions_up
          << ',' << s.transitions_down << ','
          << full(s.high_speed_fraction(window)) << ',' << s.migrations_in
          << ',' << s.migrations_out << ',' << s.degraded_requests << ','
          << s.lost_requests << '\n';
    }
  }
}

FleetTimeSeries merge_time_series(
    const std::vector<const TimeSeriesRecorder*>& shards,
    std::uint32_t disks_per_shard) {
  if (shards.empty()) {
    throw std::invalid_argument("merge_time_series: no shards");
  }
  FleetTimeSeries fleet;
  fleet.window = shards.front()->window_length();
  fleet.disks = fleet_disk_count(static_cast<std::uint32_t>(shards.size()),
                                 disks_per_shard);
  std::size_t window_count = 0;
  for (const TimeSeriesRecorder* shard : shards) {
    if (shard->window_length().value() != fleet.window.value()) {
      throw std::invalid_argument(
          "merge_time_series: shards disagree on window length");
    }
    if (shard->disk_count() != disks_per_shard) {
      throw std::invalid_argument(
          "merge_time_series: shard disk count != disks_per_shard");
    }
    window_count = std::max(window_count, shard->window_count());
  }
  fleet.windows.assign(window_count,
                       std::vector<WindowSample>(fleet.disks));
  for (std::size_t s = 0; s < shards.size(); ++s) {
    const TimeSeriesRecorder& shard = *shards[s];
    for (std::size_t w = 0; w < shard.window_count(); ++w) {
      for (std::uint32_t d = 0; d < disks_per_shard; ++d) {
        fleet.windows[w][s * disks_per_shard + d] = shard.at(w, d);
      }
    }
  }
  return fleet;
}

}  // namespace pr
