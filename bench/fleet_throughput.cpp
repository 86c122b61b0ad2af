// fleet_throughput — google-benchmark for the sharded fleet simulator
// (sim/fleet_sim). The headline point is the ISSUE target: a 10,000-disk
// fleet serving a 100,000,000-request day, which must complete in
// single-digit seconds on one core. Workloads are materialized ONCE
// outside the timing loop (materialize_fleet_workload): at fleet scale
// synthetic generation costs more than simulation, and the replay path is
// byte-identical to the streamed one (test_fleet pins this), so the timed
// region is pure simulator.
//
// PR_BENCH_QUICK=1 (the CI quick-bench loop) drops the expensive points
// and keeps only an 80-disk / 100k-request smoke, so this binary stays
// sub-second there while local runs record the full family.
#include <benchmark/benchmark.h>

#include <cstdint>

#include "bench_common.h"
#include "core/registry.h"
#include "sim/fleet_sim.h"
#include "workload/synthetic.h"

namespace {

using namespace pr;

FleetConfig fleet_config(std::uint32_t shards, std::uint32_t disks_per_shard,
                         std::uint64_t requests) {
  FleetConfig fleet;
  fleet.shard.disk_params = two_speed_cheetah();
  fleet.shard.disk_count = disks_per_shard;
  fleet.shard.epoch = Seconds{600.0};
  fleet.shards = shards;
  fleet.threads = 0;  // hardware concurrency; never changes result bytes
  fleet.workload = worldcup98_light_config(42);
  fleet.workload.file_count = 400;
  fleet.workload.request_count = requests;  // fleet total, split per shard
  fleet.base_seed = 42;
  fleet.policy = policies::make("read");
  return fleet;
}

void run_point(benchmark::State& state, std::uint32_t shards,
               std::uint32_t disks_per_shard, std::uint64_t requests) {
  const FleetConfig config = fleet_config(shards, disks_per_shard, requests);
  const FleetWorkload workload = materialize_fleet_workload(config);
  std::uint64_t served = 0;
  for (auto _ : state) {
    FleetResult result = run_fleet(config, workload);
    served = result.merged.user_requests;
    benchmark::DoNotOptimize(result);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(served));
  state.counters["fleet_disks"] =
      static_cast<double>(fleet_disk_count(shards, disks_per_shard));
}

void register_point(const char* name, std::uint32_t shards,
                    std::uint32_t disks_per_shard, std::uint64_t requests) {
  benchmark::RegisterBenchmark(name,
                               [=](benchmark::State& state) {
                                 run_point(state, shards, disks_per_shard,
                                           requests);
                               })
      ->Unit(benchmark::kMillisecond)
      ->UseRealTime();
}

}  // namespace

int main(int argc, char** argv) {
  // Always-on smoke point; the expensive family only outside quick mode.
  register_point("BM_FleetThroughput/80disks_100k", 10, 8, 100'000);
  if (!pr::bench::quick_mode()) {
    register_point("BM_FleetThroughput/1000disks_1M", 125, 8, 1'000'000);
    register_point("BM_FleetThroughput/10000disks_100M", 1'250, 8,
                   100'000'000);
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
