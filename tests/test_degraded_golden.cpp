// Degraded-path golden: pins the byte-exact output of every way a request
// can leave the fault-free path — lost, slowed, redirected to a live copy,
// reconstructed from parity (single- and multi-chunk), and the rebuild
// traffic that follows a fail-stop. The constants are FNV-1a-64 hashes of
// the JSONL observer stream and of the canonical SimResult dump
// (golden_dump.h) on the seed-layout golden's workload.
//
// Zero-valued counters are dropped from the dump before hashing: this file
// pins what the degraded path *does*; which counters a run registers is
// pinned by test_seed_layout_golden.cpp. Each case also asserts that the
// path it names actually fired, so a hash cannot silently pin a run that
// never left the fault-free branch.
//
// Like the seed golden, the hashes are x86-64 baseline-ISA artifacts and
// the comparison is skipped elsewhere.
#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "core/registry.h"
#include "golden_dump.h"
#include "obs/jsonl_writer.h"
#include "sim/array_sim.h"
#include "workload/synthetic.h"

namespace pr {
namespace {

struct DegradedRun {
  std::uint64_t result = 0;
  std::uint64_t jsonl = 0;
  SimResult sim;
};

const SyntheticWorkload& workload() {
  static const SyntheticWorkload w = [] {
    SyntheticWorkloadConfig wc;
    wc.file_count = 400;
    wc.request_count = 8000;
    wc.mean_interarrival = Seconds{0.35};
    wc.seed = 20260805;
    return generate_workload(wc);
  }();
  return w;
}

SimConfig array_config() {
  SimConfig sc;
  sc.disk_params = two_speed_cheetah();
  sc.disk_count = 8;
  sc.epoch = Seconds{600.0};
  return sc;
}

DegradedRun run_degraded(const SimConfig& sc, std::string_view policy_name,
                         const FaultPlan& plan, ParamMap params = {}) {
  const SyntheticWorkload& w = workload();
  std::ostringstream jsonl;
  JsonlTraceWriter writer(jsonl);
  const auto policy = policies::make(policy_name, std::move(params))();
  DegradedRun run;
  run.sim = run_simulation(sc, w.files, w.trace, *policy, &writer, &plan);
  SimResult pinned = run.sim;
  std::erase_if(pinned.counters,
                [](const auto& entry) { return entry.second == 0; });
  run.result = golden::fnv1a(golden::dump_result(pinned));
  run.jsonl = golden::fnv1a(jsonl.str());
  return run;
}

std::uint64_t counter(const SimResult& r, const std::string& name) {
  const auto it = r.counters.find(name);
  return it == r.counters.end() ? 0 : it->second;
}

/// Fail-stop `disk` at `at` for the rest of the run.
FaultPlan kill(DiskId disk, Seconds at) {
  return FaultPlan::from_events({FaultEvent{at, disk, FaultKind::kFail, 1.0}});
}

DegradedRun parity_run(RedundancyKind kind) {
  SimConfig sc = array_config();
  sc.redundancy.kind = kind;
  sc.redundancy.group = 4;
  sc.redundancy.rebuild = true;
  sc.redundancy.rebuild_mbps = 0.002;
  sc.redundancy.rebuild_chunk = 64 * kKiB;
  const FaultPlan plan = FaultPlan::from_events({
      FaultEvent{Seconds{400.0}, 1, FaultKind::kFail, 1.0},
      FaultEvent{Seconds{1500.0}, 6, FaultKind::kFail, 1.0},
  });
  return run_degraded(sc, "read", plan);
}

#if defined(__x86_64__) || defined(_M_X64)

// Captured before the single-dispatch-path refactor; it must leave every
// hash in place.

TEST(DegradedGolden, ReadHazardWithSlowdownsLosesAndSlowsRequests) {
  FaultHazard hazard;
  hazard.seed = 7;
  hazard.afr = 20'000.0;
  hazard.mttr = Seconds{120.0};
  hazard.horizon = workload().trace.requests.back().arrival;
  std::vector<FaultEvent> events = FaultPlan::from_hazard(hazard, 8).events();
  events.push_back(FaultEvent{Seconds{300.0}, 1, FaultKind::kSlowdown, 3.0});
  events.push_back(FaultEvent{Seconds{900.0}, 1, FaultKind::kSlowdown, 1.0});
  events.push_back(FaultEvent{Seconds{1200.0}, 4, FaultKind::kSlowdown, 2.5});
  const FaultPlan plan = FaultPlan::from_events(std::move(events));

  const DegradedRun run = run_degraded(array_config(), "read", plan);
  EXPECT_GT(counter(run.sim, "sim.requests_lost"), 0u);
  EXPECT_GT(counter(run.sim, "sim.requests_slowed"), 0u);
  EXPECT_EQ(run.result, 11334860875890762927ULL) << "result dump hash drifted";
  EXPECT_EQ(run.jsonl, 3188953263843364751ULL) << "JSONL stream hash drifted";
}

TEST(DegradedGolden, ReadRaid5ReconstructsAndRebuilds) {
  const DegradedRun run = parity_run(RedundancyKind::kRaid5);
  EXPECT_GT(counter(run.sim, "sim.requests_reconstructed"), 0u);
  EXPECT_GT(counter(run.sim, "redundancy.rebuild_steps"), 0u);
  EXPECT_EQ(run.result, 6954821662194027187ULL) << "result dump hash drifted";
  EXPECT_EQ(run.jsonl, 14633714163530609516ULL) << "JSONL stream hash drifted";
}

TEST(DegradedGolden, ReadDeclusteredReconstructsAndRebuilds) {
  const DegradedRun run = parity_run(RedundancyKind::kDeclustered);
  EXPECT_GT(counter(run.sim, "sim.requests_reconstructed"), 0u);
  EXPECT_GT(counter(run.sim, "redundancy.rebuild_steps"), 0u);
  EXPECT_EQ(run.result, 16599030677180201226ULL) << "result dump hash drifted";
  EXPECT_EQ(run.jsonl, 4995060233297291192ULL) << "JSONL stream hash drifted";
}

TEST(DegradedGolden, MaidRedirectsToCacheCopy) {
  const DegradedRun run =
      run_degraded(array_config(), "maid", kill(0, Seconds{300.0}));
  EXPECT_GT(counter(run.sim, "sim.requests_degraded"), 0u);
  EXPECT_EQ(run.result, 12377076628660923441ULL) << "result dump hash drifted";
  EXPECT_EQ(run.jsonl, 6963475366302969359ULL) << "JSONL stream hash drifted";
}

TEST(DegradedGolden, ReplicatedReadRedirectsToReplica) {
  const DegradedRun run = run_degraded(array_config(), "replicated-read",
                                       kill(0, Seconds{300.0}));
  EXPECT_GT(counter(run.sim, "sim.requests_degraded"), 0u);
  EXPECT_EQ(run.result, 1269943030482303144ULL) << "result dump hash drifted";
  EXPECT_EQ(run.jsonl, 970593095184122042ULL) << "JSONL stream hash drifted";
}

TEST(DegradedGolden, StripedStaticLosesWholeRequests) {
  const DegradedRun run =
      run_degraded(array_config(), "striped-static", kill(3, Seconds{300.0}),
                   ParamMap{{"stripe_unit", "65536"}});
  EXPECT_GT(counter(run.sim, "sim.requests_lost"), 0u);
  EXPECT_EQ(run.result, 15616465260447949247ULL) << "result dump hash drifted";
  EXPECT_EQ(run.jsonl, 10802318611368078025ULL) << "JSONL stream hash drifted";
}

TEST(DegradedGolden, StripedReadRaid5ReconstructsChunks) {
  SimConfig sc = array_config();
  sc.redundancy.kind = RedundancyKind::kRaid5;
  sc.redundancy.group = 4;
  sc.redundancy.rebuild = false;
  const DegradedRun run =
      run_degraded(sc, "striped-read", kill(0, Seconds{200.0}),
                   ParamMap{{"stripe_unit", "65536"}});
  EXPECT_GT(counter(run.sim, "sim.requests_reconstructed"), 0u);
  EXPECT_EQ(run.result, 13658125634499642836ULL) << "result dump hash drifted";
  EXPECT_EQ(run.jsonl, 13440546778291802380ULL) << "JSONL stream hash drifted";
}

// Control, faults and rebuild in one run: the latency and epoch
// controllers move H and the epoch stride (boundaries 150, 300, 375, 435,
// 495, ...), a slowdown lands on a rebuild source, and disk 4 fail-stops
// exactly on the 495 s boundary, so epoch work, the fault, its rebuild
// steps (which wake spun-down sources) and DPM idle checks all interleave.
// Captured before the one-function event merge in ArraySimulator.
TEST(DegradedGolden, ControlledRaid5FailStopOnEpochBoundary) {
  SimConfig sc = array_config();
  sc.epoch = Seconds{150.0};
  sc.control.enabled = true;
  sc.control.target_rt_ms = 20.0;
  sc.control.adapt_epoch = true;
  sc.redundancy.kind = RedundancyKind::kRaid5;
  sc.redundancy.group = 4;
  sc.redundancy.rebuild = true;
  sc.redundancy.rebuild_mbps = 0.002;
  sc.redundancy.rebuild_chunk = 64 * kKiB;
  const FaultPlan plan = FaultPlan::from_events({
      FaultEvent{Seconds{200.0}, 5, FaultKind::kSlowdown, 2.0},
      FaultEvent{Seconds{495.0}, 4, FaultKind::kFail, 1.0},
  });
  const DegradedRun run = run_degraded(sc, "read", plan);
  EXPECT_GT(counter(run.sim, "control.epoch_scaled"), 0u);
  EXPECT_GT(counter(run.sim, "redundancy.rebuild_steps"), 0u);
  EXPECT_GT(counter(run.sim, "redundancy.rebuild_wakeups"), 0u);
  EXPECT_GT(counter(run.sim, "sim.requests_reconstructed"), 0u);
  EXPECT_GT(counter(run.sim, "sim.requests_slowed"), 0u);
  EXPECT_EQ(run.result, 1433849590576941707ULL) << "result dump hash drifted";
  EXPECT_EQ(run.jsonl, 2977480775716578141ULL) << "JSONL stream hash drifted";
}

// The control paths the case above leaves out: admission shedding and the
// energy-budget controller resizing online-read's hot zone, with a
// slowdown stretching one disk's backlog past the admission window.
// Captured before the epoch clock and the control window moved out of
// ArraySimulator into sim/epoch_driver.h.
TEST(DegradedGolden, ControlledOnlineReadShedsAndResizesHotZone) {
  SimConfig sc = array_config();
  sc.epoch = Seconds{150.0};
  sc.control.enabled = true;
  sc.control.admit_window_s = 0.02;
  sc.control.energy_budget_w = 80.0;
  const FaultPlan plan = FaultPlan::from_events({
      FaultEvent{Seconds{300.0}, 0, FaultKind::kSlowdown, 4.0},
  });
  const DegradedRun run = run_degraded(sc, "online-read", plan);
  EXPECT_GT(counter(run.sim, "control.shed_requests"), 0u);
  EXPECT_GT(counter(run.sim, "control.hot_grows") +
                counter(run.sim, "control.hot_shrinks"),
            0u);
  EXPECT_EQ(run.result, 12387855850623278813ULL) << "result dump hash drifted";
  EXPECT_EQ(run.jsonl, 17923901449409384902ULL) << "JSONL stream hash drifted";
}

#else

TEST(DegradedGolden, SkippedOffX86) {
  GTEST_SKIP() << "degraded-path hashes are x86-64 baseline-ISA artifacts";
}

#endif

}  // namespace
}  // namespace pr
