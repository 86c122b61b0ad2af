// redundancy_bench — google-benchmark for the redundancy seam
// (src/redundancy + the array-simulator degraded path). Two questions:
//
//   BM_DegradedRead     what a run costs when one disk is down from t=0
//                       and every read that lands on it fans out into a
//                       parity reconstruction (RAID-5: group-wide,
//                       declustered: rotated partners), against the
//                       fault-free baseline of the same parity config
//   BM_RebuildOverhead  what the background rebuild engine adds to a
//                       mid-run failure — scheduler steps, wakeups, and
//                       the synthetic recovery. raid5_no_rebuild keeps the
//                       disk degraded to the end, so it reconstructs far
//                       more reads and is not the comparison:
//                       raid5_recover_same_instant returns the disk by a
//                       plan kRecover at the instant the 8 MB/s rebuild
//                       completes, so it differs from raid5_rebuild_8mbps
//                       only by the rebuild I/O and step scheduling
//
// Workloads are materialized ONCE outside the timing loop so the timed
// region is pure simulator; fault plans are fixed event lists, so every
// iteration replays the identical faulted run (determinism makes these
// benches noise-free by construction).
//
// PR_BENCH_QUICK=1 (the CI quick-bench loop) scales the request count
// down ~5× so the binary stays sub-second there; local runs record the
// full points.
#include <benchmark/benchmark.h>

#include <cstdint>
#include <cstdio>

#include "bench_common.h"
#include "core/session.h"
#include "fault/fault_plan.h"
#include "obs/observer.h"
#include "redundancy/redundancy_config.h"
#include "workload/synthetic.h"

namespace {

using namespace pr;

SyntheticWorkload make_workload(std::uint64_t requests) {
  auto wc = worldcup98_light_config(42);
  wc.file_count = 200;
  wc.request_count = requests;
  return generate_workload(wc);
}

SystemConfig make_config(RedundancyKind kind, bool rebuild, double mbps) {
  SystemConfig cfg;
  cfg.sim.disk_count = 6;
  cfg.sim.epoch = Seconds{600.0};
  cfg.sim.redundancy.kind = kind;
  cfg.sim.redundancy.rebuild = rebuild;
  cfg.sim.redundancy.rebuild_mbps = mbps;
  return cfg;
}

void run_point(benchmark::State& state, const SyntheticWorkload& workload,
               RedundancyKind kind, const FaultPlan* plan, bool rebuild,
               double mbps) {
  const SystemConfig cfg = make_config(kind, rebuild, mbps);
  std::uint64_t reconstructed = 0;
  for (auto _ : state) {
    SimulationSession session(cfg);
    session.with_workload(workload).with_policy("read");
    if (plan != nullptr) session.with_faults(*plan);
    SystemReport report = session.run();
    benchmark::DoNotOptimize(report);
    const auto it = report.sim.counters.find("sim.requests_reconstructed");
    if (it != report.sim.counters.end()) reconstructed = it->second;
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations()) *
      static_cast<std::int64_t>(workload.trace.requests.size()));
  // Reads that fanned out into parity reconstruction, per run: the
  // rebuild comparison is only fair between points where this matches.
  state.counters["reconstructed"] = static_cast<double>(reconstructed);
}

void register_point(const char* name, const SyntheticWorkload& workload,
                    RedundancyKind kind, const FaultPlan* plan, bool rebuild,
                    double mbps) {
  benchmark::RegisterBenchmark(name,
                               [&workload, kind, plan, rebuild,
                                mbps](benchmark::State& state) {
                                 run_point(state, workload, kind, plan,
                                           rebuild, mbps);
                               })
      ->Unit(benchmark::kMillisecond)
      ->UseRealTime();
}

/// When the rebuild started by `plan` completes on one run of the
/// rebuild point (kNeverTime if it never does).
Seconds rebuild_completion(const SyntheticWorkload& workload,
                           const FaultPlan& plan, double mbps) {
  struct CompletionProbe : SimObserver {
    Seconds done = kNeverTime;
    void on_rebuild_complete(const RebuildCompleteEvent& e) override {
      done = e.time;
    }
  } probe;
  SimulationSession session(make_config(RedundancyKind::kRaid5, true, mbps));
  session.with_workload(workload).with_policy("read").with_faults(plan);
  session.with_observer(probe);
  (void)session.run();
  return probe.done;
}

}  // namespace

int main(int argc, char** argv) {
  const std::uint64_t requests = pr::bench::quick_mode() ? 20'000 : 100'000;
  const SyntheticWorkload workload = make_workload(requests);

  // Disk 0 down before the first arrival and never repaired: every read
  // routed there is degraded for the whole run.
  const FaultPlan whole_run =
      FaultPlan::from_events({{Seconds{0.0}, 0, FaultKind::kFail}});
  // Mid-run kill for the rebuild points (the wc98-light horizon is
  // ~58.4 ms per request, so 300 s sits inside even the quick run).
  const FaultPlan mid_run =
      FaultPlan::from_events({{Seconds{300.0}, 0, FaultKind::kFail}});

  register_point("BM_DegradedRead/raid5_fault_free", workload,
                 RedundancyKind::kRaid5, nullptr, false, 32.0);
  register_point("BM_DegradedRead/raid5_one_down", workload,
                 RedundancyKind::kRaid5, &whole_run, false, 32.0);
  register_point("BM_DegradedRead/declustered_one_down", workload,
                 RedundancyKind::kDeclustered, &whole_run, false, 32.0);

  register_point("BM_RebuildOverhead/raid5_no_rebuild", workload,
                 RedundancyKind::kRaid5, &mid_run, false, 32.0);
  register_point("BM_RebuildOverhead/raid5_rebuild_8mbps", workload,
                 RedundancyKind::kRaid5, &mid_run, true, 8.0);
  // The same kill, repaired by the plan at the instant the 8 MB/s rebuild
  // completes: the degraded window (and so the reconstructed reads) match
  // the rebuild point, without its I/O.
  const Seconds repaired = rebuild_completion(workload, mid_run, 8.0);
  if (repaired == kNeverTime) {
    std::fprintf(stderr, "redundancy_bench: the rebuild never completes\n");
    return 1;
  }
  const FaultPlan recovered = FaultPlan::from_events(
      {{Seconds{300.0}, 0, FaultKind::kFail},
       {repaired, 0, FaultKind::kRecover}});
  register_point("BM_RebuildOverhead/raid5_recover_same_instant", workload,
                 RedundancyKind::kRaid5, &recovered, false, 32.0);

  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
