// Fault-injection subsystem (src/fault): plan construction and hazard
// determinism, FaultState idempotence, the simulator seam (fail-stop
// loses requests, policies redirect, slowdowns inflate service), the
// DegradationAnalyzer metrics, and the determinism contracts — an empty
// plan is byte-identical to no plan, and same-seed faulted runs are
// byte-identical.
#include "fault/fault_plan.h"

#include <gtest/gtest.h>

#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/session.h"
#include "fault/degradation_analyzer.h"
#include "fault/fault_state.h"
#include "obs/jsonl_writer.h"
#include "press/afr_agreement.h"
#include "sim/array_sim.h"
#include "workload/synthetic.h"

namespace pr {
namespace {

// ----------------------------------------------------------------- fixtures

FileSet two_files() {
  std::vector<FileInfo> files(2);
  files[0] = {0, 1 * kMiB, 1.0};
  files[1] = {1, 2 * kMiB, 0.5};
  return FileSet(std::move(files));
}

SimConfig config(std::size_t disks) {
  SimConfig c;
  c.disk_params = two_speed_cheetah();
  c.disk_count = disks;
  return c;
}

Trace trace_of(std::initializer_list<std::pair<double, FileId>> arrivals) {
  Trace t;
  for (auto [time, file] : arrivals) {
    Request r;
    r.arrival = Seconds{time};
    r.file = file;
    r.size = file == 0 ? 1 * kMiB : 2 * kMiB;
    t.requests.push_back(r);
  }
  return t;
}

/// Places file f on disk f % n; no replicas and no redundancy scheme, so
/// degraded requests whose disk failed are lost (the simulator's default
/// when Policy::redundancy() returns nullptr).
class ProbePolicy : public Policy {
 public:
  std::string name() const override { return "Probe"; }

  void initialize(ArrayContext& ctx) override {
    for (FileId f = 0; f < ctx.files().size(); ++f) {
      ctx.place(f, static_cast<DiskId>(f % ctx.disk_count()));
    }
  }

  DiskId route(ArrayContext& ctx, const Request& req) override {
    return ctx.location(req.file);
  }
};

/// Collects the fault-facing callbacks for ordering/content checks.
class FaultRecorder : public SimObserver {
 public:
  void on_disk_fail(const DiskFailEvent& e) override { fails.push_back(e); }
  void on_disk_recover(const DiskRecoverEvent& e) override {
    recovers.push_back(e);
  }
  void on_request_degraded(const RequestDegradedEvent& e) override {
    degraded.push_back(e);
  }
  void on_request_complete(const RequestCompleteEvent& e) override {
    completions.push_back(e);
  }

  std::vector<DiskFailEvent> fails;
  std::vector<DiskRecoverEvent> recovers;
  std::vector<RequestDegradedEvent> degraded;
  std::vector<RequestCompleteEvent> completions;
};

// ---------------------------------------------------------------- FaultPlan

TEST(FaultPlan, FromEventsSortsAndValidates) {
  const FaultPlan plan = FaultPlan::from_events({
      {Seconds{20.0}, 1, FaultKind::kRecover},
      {Seconds{5.0}, 0, FaultKind::kFail},
      {Seconds{20.0}, 0, FaultKind::kFail},
  });
  ASSERT_EQ(plan.size(), 3u);
  EXPECT_DOUBLE_EQ(plan.events()[0].time.value(), 5.0);
  EXPECT_EQ(plan.events()[0].disk, 0u);
  // Equal times order by disk.
  EXPECT_EQ(plan.events()[1].disk, 0u);
  EXPECT_EQ(plan.events()[2].disk, 1u);

  EXPECT_THROW((void)FaultPlan::from_events({{Seconds{-1.0}, 0}}),
               std::invalid_argument);
  EXPECT_THROW((void)FaultPlan::from_events(
                   {{Seconds{1.0}, 0, FaultKind::kSlowdown, 0.5}}),
               std::invalid_argument);
  EXPECT_NO_THROW(plan.validate(2));
  EXPECT_THROW(plan.validate(1), std::invalid_argument);
}

TEST(FaultPlan, HazardIsDeterministicAndScales) {
  FaultHazard hazard;
  hazard.seed = 9;
  hazard.afr = 2000.0;  // dense enough to generate several pairs
  hazard.mttr = Seconds{50.0};
  hazard.horizon = kSecondsPerDay;

  const FaultPlan a = FaultPlan::from_hazard(hazard, 4);
  const FaultPlan b = FaultPlan::from_hazard(hazard, 4);
  ASSERT_FALSE(a.empty());
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_DOUBLE_EQ(a.events()[i].time.value(), b.events()[i].time.value());
    EXPECT_EQ(a.events()[i].disk, b.events()[i].disk);
    EXPECT_EQ(a.events()[i].kind, b.events()[i].kind);
  }

  // Disk streams are independent: a 2-disk plan's per-disk schedule is a
  // subset of the 4-disk plan's.
  const FaultPlan small = FaultPlan::from_hazard(hazard, 2);
  const auto disk_times = [](const FaultPlan& p, DiskId d) {
    std::vector<double> times;
    for (const FaultEvent& e : p.events()) {
      if (e.disk == d) times.push_back(e.time.value());
    }
    return times;
  };
  EXPECT_EQ(disk_times(small, 0), disk_times(a, 0));
  EXPECT_EQ(disk_times(small, 1), disk_times(a, 1));

  // Every fail pairs with a recover exactly mttr later (or was cut by the
  // horizon), and all events land inside it.
  for (std::size_t d = 0; d < 4; ++d) {
    std::vector<const FaultEvent*> events;
    for (const FaultEvent& e : a.events()) {
      if (e.disk == d) events.push_back(&e);
    }
    for (std::size_t i = 0; i < events.size(); ++i) {
      EXPECT_LT(events[i]->time.value(), hazard.horizon.value());
      if (i % 2 == 0) {
        EXPECT_EQ(events[i]->kind, FaultKind::kFail);
      } else {
        EXPECT_EQ(events[i]->kind, FaultKind::kRecover);
        EXPECT_DOUBLE_EQ(events[i]->time.value(),
                         events[i - 1]->time.value() + 50.0);
      }
    }
  }

  // rate_scale 0 disables generation.
  hazard.rate_scale = 0.0;
  EXPECT_TRUE(FaultPlan::from_hazard(hazard, 4).empty());

  EXPECT_THROW((void)FaultPlan::from_hazard({1, -1.0}, 2),
               std::invalid_argument);
}

// --------------------------------------------------------------- FaultState

TEST(FaultState, ApplyIsIdempotent) {
  FaultState s;
  s.resize(2);
  EXPECT_FALSE(s.failed(0));

  EXPECT_TRUE(s.apply({Seconds{1.0}, 0, FaultKind::kFail}).changed);
  EXPECT_TRUE(s.failed(0));
  EXPECT_EQ(s.failed_count(), 1u);
  EXPECT_FALSE(s.apply({Seconds{2.0}, 0, FaultKind::kFail}).changed);

  const auto recover = s.apply({Seconds{5.0}, 0, FaultKind::kRecover});
  EXPECT_TRUE(recover.changed);
  EXPECT_DOUBLE_EQ(recover.downtime.value(), 4.0);
  EXPECT_FALSE(s.failed(0));
  EXPECT_FALSE(s.apply({Seconds{6.0}, 0, FaultKind::kRecover}).changed);

  EXPECT_TRUE(s.apply({Seconds{7.0}, 1, FaultKind::kSlowdown, 2.0}).changed);
  EXPECT_DOUBLE_EQ(s.slowdown(1), 2.0);
  EXPECT_FALSE(s.apply({Seconds{8.0}, 1, FaultKind::kSlowdown, 2.0}).changed);
  // Recovery resets the slowdown too.
  EXPECT_TRUE(s.apply({Seconds{9.0}, 1, FaultKind::kSlowdown, 1.0}).changed);
  EXPECT_DOUBLE_EQ(s.slowdown(1), 1.0);
}

// ----------------------------------------------------------- simulator seam

TEST(FaultSim, FailStopLosesRequestsUntilRecovery) {
  ProbePolicy policy;
  const auto files = two_files();
  const auto trace = trace_of({{0.0, 0}, {10.0, 0}, {30.0, 0}});
  const FaultPlan plan = FaultPlan::from_events({
      {Seconds{5.0}, 0, FaultKind::kFail},
      {Seconds{20.0}, 0, FaultKind::kRecover},
  });

  FaultRecorder obs;
  const auto result =
      run_simulation(config(2), files, trace, policy, &obs, &plan);

  // t=0 served, t=10 lost (disk 0 down 5..20), t=30 served.
  EXPECT_EQ(result.user_requests, 2u);
  EXPECT_EQ(result.counters.at("sim.faults_injected"), 1u);
  EXPECT_EQ(result.counters.at("sim.fault_recoveries"), 1u);
  EXPECT_EQ(result.counters.at("sim.requests_lost"), 1u);

  ASSERT_EQ(obs.fails.size(), 1u);
  EXPECT_DOUBLE_EQ(obs.fails[0].time.value(), 5.0);
  EXPECT_EQ(obs.fails[0].mode, FaultMode::kFailStop);
  ASSERT_EQ(obs.recovers.size(), 1u);
  EXPECT_DOUBLE_EQ(obs.recovers[0].time.value(), 20.0);
  EXPECT_DOUBLE_EQ(obs.recovers[0].downtime.value(), 15.0);
  ASSERT_EQ(obs.degraded.size(), 1u);
  EXPECT_DOUBLE_EQ(obs.degraded[0].time.value(), 10.0);
  EXPECT_EQ(obs.degraded[0].outcome, DegradedOutcome::kLost);
  EXPECT_EQ(obs.degraded[0].intended, 0u);
  // Lost requests never complete.
  EXPECT_EQ(obs.completions.size(), 2u);
}

TEST(FaultSim, SlowdownInflatesServiceAndAnnounces) {
  const auto files = two_files();
  const auto trace = trace_of({{1.0, 0}});

  ProbePolicy nominal;
  FaultRecorder base_obs;
  const auto base =
      run_simulation(config(1), files, trace, nominal, &base_obs, nullptr);
  ASSERT_EQ(base_obs.completions.size(), 1u);

  const FaultPlan plan = FaultPlan::from_events({
      {Seconds{0.0}, 0, FaultKind::kSlowdown, 3.0},
  });
  ProbePolicy slowed;
  FaultRecorder obs;
  const auto result =
      run_simulation(config(1), files, trace, slowed, &obs, &plan);

  EXPECT_EQ(result.counters.at("sim.fault_slowdowns"), 1u);
  EXPECT_EQ(result.counters.at("sim.requests_slowed"), 1u);
  ASSERT_EQ(obs.degraded.size(), 1u);
  EXPECT_EQ(obs.degraded[0].outcome, DegradedOutcome::kSlowed);
  EXPECT_DOUBLE_EQ(obs.degraded[0].slowdown, 3.0);
  // The extra (factor - 1) x bytes chaser pushes completion out.
  ASSERT_EQ(obs.completions.size(), 1u);
  EXPECT_GT(obs.completions[0].completion.value(),
            base_obs.completions[0].completion.value());
  EXPECT_EQ(result.user_requests, 1u);
}

TEST(FaultSim, PoliciesRedirectAroundFailedDisk) {
  // The fault_sweep.ini shape: this seed's popularity skew gives the READ
  // zoning a multi-disk hot zone, which replication needs for replica
  // targets (a flatter fileset collapses to one hot disk and every copy
  // of a disk-0 file dies with it).
  auto wc = worldcup98_light_config(42);
  wc.file_count = 200;
  wc.request_count = 20'000;
  const auto w = generate_workload(wc);
  // Disk 0 fails once caches and replicas exist, and stays down.
  const FaultPlan plan =
      FaultPlan::from_events({{Seconds{300.0}, 0, FaultKind::kFail}});

  const auto run_policy = [&](const char* name) {
    SystemConfig cfg;
    cfg.sim.disk_count = 6;
    cfg.sim.epoch = Seconds{600.0};
    return SimulationSession(cfg)
        .with_workload(w)
        .with_policy(name)
        .with_faults(plan)
        .run();
  };

  const auto read = run_policy("read");
  const auto repl = run_policy("replicated-read");
  const auto maid = run_policy("maid");

  const auto lost = [](const SystemReport& r) {
    return r.sim.counters.at("sim.requests_lost");
  };
  // READ has a single copy per file: everything routed to disk 0 is lost.
  EXPECT_GT(lost(read), 0u);
  // Replicas and the MAID cache absorb most of those.
  EXPECT_LT(lost(repl), lost(read));
  EXPECT_LT(lost(maid), lost(read));
  EXPECT_GT(repl.sim.counters.at("sim.requests_degraded"), 0u);
  EXPECT_GT(repl.sim.counters.at("replication.degraded_read"), 0u);
  EXPECT_GT(maid.sim.counters.at("maid.degraded_read"), 0u);
}

// ----------------------------------------------------- determinism contracts

TEST(FaultSim, EmptyPlanIsByteIdenticalToNoPlan) {
  auto wc = worldcup98_light_config(7);
  wc.file_count = 100;
  wc.request_count = 2'500;
  const auto w = generate_workload(wc);

  const auto run_once = [&](const FaultPlan* plan) {
    ProbePolicy policy;
    auto cfg = config(3);
    cfg.epoch = Seconds{600.0};
    std::ostringstream out;
    JsonlTraceWriter writer(out);
    auto result = run_simulation(cfg, w.files, w.trace, policy, &writer, plan);
    return std::pair{out.str(), std::move(result)};
  };

  const FaultPlan empty;
  const auto [without_text, without] = run_once(nullptr);
  const auto [with_text, with] = run_once(&empty);
  EXPECT_FALSE(without_text.empty());
  EXPECT_EQ(without_text, with_text);
  EXPECT_EQ(without.counters, with.counters);  // no fault counters appear
  EXPECT_EQ(without.counters.count("sim.faults_injected"), 0u);
  EXPECT_DOUBLE_EQ(without.energy_joules(), with.energy_joules());
}

TEST(FaultSim, FaultedRunsAreDeterministic) {
  auto wc = worldcup98_light_config(5);
  wc.file_count = 100;
  wc.request_count = 2'500;
  const auto w = generate_workload(wc);

  FaultHazard hazard;
  hazard.seed = 3;
  hazard.afr = 800'000.0;  // mean time between faults ~40 s per disk
  hazard.mttr = Seconds{30.0};
  hazard.horizon = w.trace.requests.back().arrival;
  const FaultPlan plan = FaultPlan::from_hazard(hazard, 3);
  ASSERT_FALSE(plan.empty());

  const auto run_once = [&] {
    SystemConfig cfg;
    cfg.sim.disk_count = 3;
    cfg.sim.epoch = Seconds{600.0};
    std::ostringstream out;
    JsonlTraceWriter writer(out);
    (void)SimulationSession(cfg)
        .with_workload(w)
        .with_policy("read")
        .with_observer(writer)
        .with_faults(plan)
        .run();
    return out.str();
  };

  const std::string first = run_once();
  EXPECT_FALSE(first.empty());
  EXPECT_NE(first.find("\"ev\":\"disk_fail\""), std::string::npos);
  EXPECT_EQ(run_once(), first);
}

// ------------------------------------------------------- DegradationAnalyzer

TEST(DegradationAnalyzer, ComputesWindowsRecoveryAndCounts) {
  DegradationAnalyzer a;
  RunStartEvent start;
  start.disk_count = 2;
  a.on_run_start(start);

  a.on_disk_fail({Seconds{10.0}, 0, FaultMode::kFailStop});
  a.on_request_degraded(
      {Seconds{12.0}, 0, 0, 0, DegradedOutcome::kLost, 1.0});
  a.on_disk_fail({Seconds{20.0}, 1, FaultMode::kFailStop});
  // Slowdown announcements are not failures.
  a.on_disk_fail({Seconds{25.0}, 1, FaultMode::kSlowdown, 2.0});
  a.on_request_degraded(
      {Seconds{26.0}, 1, 0, 1, DegradedOutcome::kRedirected, 1.0});
  a.on_disk_recover({Seconds{30.0}, 0, Seconds{20.0}});
  a.on_disk_recover({Seconds{50.0}, 1, Seconds{30.0}});
  a.on_disk_fail({Seconds{60.0}, 0, FaultMode::kFailStop});  // never heals
  RunEndEvent end;
  end.horizon = Seconds{100.0};
  a.on_run_end(end);

  EXPECT_EQ(a.failures(), 3u);
  EXPECT_EQ(a.recoveries(), 2u);
  EXPECT_EQ(a.unrecovered(), 1u);
  EXPECT_EQ(a.lost_requests(), 1u);
  EXPECT_EQ(a.redirected_requests(), 1u);
  EXPECT_EQ(a.slowed_requests(), 0u);
  // Per-disk downtime: 20 + 30 + (100 - 60).
  EXPECT_DOUBLE_EQ(a.total_downtime().value(), 90.0);
  // Union window: [10, 50) plus [60, 100).
  EXPECT_DOUBLE_EQ(a.degraded_window().value(), 80.0);
  EXPECT_DOUBLE_EQ(a.mean_recovery_time().value(), 25.0);
  EXPECT_DOUBLE_EQ(a.max_recovery_time().value(), 30.0);

  SimResult result;
  a.merge_into(result);
  EXPECT_EQ(result.counters.at("fault.downtime_ms"), 90'000u);
  EXPECT_EQ(result.counters.at("fault.degraded_window_ms"), 80'000u);
  EXPECT_EQ(result.counters.at("fault.mean_recovery_ms"), 25'000u);
  EXPECT_EQ(result.counters.at("fault.max_recovery_ms"), 30'000u);
}

// ------------------------------------------------------------- AFR agreement

TEST(AfrAgreement, ScoresRatiosAndGuardsZeroDenominators) {
  // 4 disks for half a year with 2 observed failures = 1 failure/disk-year.
  const AfrAgreement a = score_afr_agreement(
      0.5, 2.0, 2, 4, Seconds{0.5 * kSecondsPerYear.value()});
  EXPECT_DOUBLE_EQ(a.observed_afr, 1.0);
  EXPECT_DOUBLE_EQ(a.predicted_over_observed, 0.5);
  EXPECT_DOUBLE_EQ(a.predicted_over_injected, 0.25);

  const AfrAgreement zero = score_afr_agreement(0.1, 0.0, 0, 4, Seconds{0.0});
  EXPECT_DOUBLE_EQ(zero.observed_afr, 0.0);
  EXPECT_DOUBLE_EQ(zero.predicted_over_observed, 0.0);
  EXPECT_DOUBLE_EQ(zero.predicted_over_injected, 0.0);
}

}  // namespace
}  // namespace pr
