// Feedback-control subsystem tests (ISSUE 10): ControlLoop's three
// deterministic controllers and their anti-oscillation machinery, the
// online Zipf estimator, the simulator's actuation seam (admission
// shedding, threshold/hot-zone/epoch-length knobs), the control-disabled
// byte-identity contract, rerun/thread determinism with control on,
// the [control] scenario section, and the OnlineReadPolicy promotion-bar
// regression (ceiling-decayed bar across a decay boundary).
#include "control/control_loop.h"

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "control/zipf_estimator.h"
#include "core/report_io.h"
#include "core/session.h"
#include "exp/scenario.h"
#include "exp/scenario_engine.h"
#include "exp/scenario_report.h"
#include "obs/jsonl_writer.h"
#include "policy/online_read_policy.h"
#include "policy/read_policy.h"
#include "trace/trace_stats.h"
#include "workload/synthetic.h"

namespace pr {
namespace {

// --------------------------------------------------- ControlLoop units

ControlConfig armed_config() {
  ControlConfig c;
  c.enabled = true;
  c.target_rt_ms = 100.0;
  c.energy_budget_w = 100.0;
  c.adapt_epoch = true;
  c.admit_window_s = 1.0;
  return c;
}

/// One epoch window with the three signals set relative to the armed
/// config's setpoints: rt_err / energy_err are relative errors, backlog
/// as a fraction of the admission window.
ControlInputs window(double rt_err, double energy_err, double backlog_frac,
                     std::uint64_t shed = 0) {
  ControlInputs in;
  in.epoch_s = 100.0;
  in.requests = 50;
  in.mean_rt_s = 0.1 * (1.0 + rt_err);
  in.energy_j = 100.0 * (1.0 + energy_err) * in.epoch_s;
  in.max_backlog_s = backlog_frac * 1.0;
  in.shed = shed;
  return in;
}

TEST(ControlLoopTest, EnabledConfigIsValidated) {
  const auto throws = [](auto mutate) {
    ControlConfig c = armed_config();
    mutate(c);
    EXPECT_THROW(ControlLoop{c}, std::invalid_argument);
  };
  throws([](ControlConfig& c) { c.gain = 0.0; });
  throws([](ControlConfig& c) { c.hysteresis = -0.1; });
  throws([](ControlConfig& c) { c.persistence = 0; });
  throws([](ControlConfig& c) { c.max_step = 1.0; });
  throws([](ControlConfig& c) { c.h_min_s = 0.0; });
  throws([](ControlConfig& c) { c.h_max_s = c.h_min_s / 2.0; });
  throws([](ControlConfig& c) { c.epoch_min_s = 0.0; });
  throws([](ControlConfig& c) { c.epoch_max_s = c.epoch_min_s / 2.0; });
  throws([](ControlConfig& c) { c.target_rt_ms = -1.0; });
  throws([](ControlConfig& c) { c.energy_budget_w = -1.0; });
  throws([](ControlConfig& c) { c.admit_window_s = -1.0; });
  // adapt_epoch needs a backlog yardstick (admission window or target).
  throws([](ControlConfig& c) {
    c.admit_window_s = 0.0;
    c.target_rt_ms = 0.0;
  });
}

TEST(ControlLoopTest, LatencyControllerNeedsPersistence) {
  ControlLoop loop(armed_config());
  // One slow epoch: streak 1 of 2, hold.
  EXPECT_EQ(loop.update(window(1.0, 0.0, 0.25)).h_scale, 1.0);
  // Second consecutive slow epoch: act. Relative error 1.0 with gain 0.5
  // gives step 1.5 (under max_step 2).
  EXPECT_DOUBLE_EQ(loop.update(window(1.0, 0.0, 0.25)).h_scale, 1.5);
  // A fast epoch reverses the streak: hold, then act downward (1/step).
  EXPECT_EQ(loop.update(window(-0.5, 0.0, 0.25)).h_scale, 1.0);
  EXPECT_DOUBLE_EQ(loop.update(window(-0.5, 0.0, 0.25)).h_scale,
                   1.0 / 1.25);
}

TEST(ControlLoopTest, LatencyStepIsCappedByMaxStep) {
  ControlLoop loop(armed_config());
  (void)loop.update(window(30.0, 0.0, 0.25));
  EXPECT_DOUBLE_EQ(loop.update(window(30.0, 0.0, 0.25)).h_scale, 2.0);
}

TEST(ControlLoopTest, IdleEpochsResetTheLatencyStreak) {
  ControlLoop loop(armed_config());
  EXPECT_FALSE(loop.update(window(1.0, 0.0, 0.25)).any());
  ControlInputs idle;  // no requests: silence is not evidence
  idle.epoch_s = 100.0;
  EXPECT_FALSE(loop.update(idle).any());
  // The pre-idle slow epoch must not carry over.
  EXPECT_EQ(loop.update(window(1.0, 0.0, 0.25)).h_scale, 1.0);
  EXPECT_GT(loop.update(window(1.0, 0.0, 0.25)).h_scale, 1.0);
}

TEST(ControlLoopTest, HysteresisBandHoldsForever) {
  ControlLoop loop(armed_config());  // hysteresis 0.25
  for (int i = 0; i < 10; ++i) {
    EXPECT_FALSE(loop.update(window(0.2, -0.2, 0.25)).any()) << i;
  }
}

/// The headline anti-oscillation pin: a load signal alternating direction
/// every epoch (a square wave at the epoch frequency) can never move any
/// knob at persistence 2 — every streak is reset before it matures.
TEST(ControlLoopTest, SquareWaveLoadNeverMovesAnyKnob) {
  ControlLoop loop(armed_config());
  for (int i = 0; i < 20; ++i) {
    const double flip = (i % 2 == 0) ? 1.0 : -0.6;
    const ControlDecision d =
        loop.update(window(flip, flip, i % 2 == 0 ? 0.9 : 0.0));
    EXPECT_FALSE(d.any()) << "epoch " << i;
  }
}

TEST(ControlLoopTest, EnergyControllerCapAndSpend) {
  ControlLoop loop(armed_config());
  EXPECT_EQ(loop.update(window(0.0, 1.0, 0.25)).hot_delta, 0);
  EXPECT_EQ(loop.update(window(0.0, 1.0, 0.25)).hot_delta, -1);  // over
  EXPECT_EQ(loop.update(window(0.0, -0.8, 0.25)).hot_delta, 0);
  EXPECT_EQ(loop.update(window(0.0, -0.8, 0.25)).hot_delta, 1);  // spare
}

TEST(ControlLoopTest, EpochControllerPressureHalvesCalmDoubles) {
  ControlLoop loop(armed_config());
  // Shed requests are pressure regardless of the backlog reading.
  EXPECT_EQ(loop.update(window(0.0, 0.0, 0.0, 5)).epoch_scale, 1.0);
  EXPECT_EQ(loop.update(window(0.0, 0.0, 0.0, 5)).epoch_scale, 0.5);
  // Calm: backlog under 1/8 of the reference window, with traffic.
  EXPECT_EQ(loop.update(window(0.0, 0.0, 0.01)).epoch_scale, 1.0);
  EXPECT_EQ(loop.update(window(0.0, 0.0, 0.01)).epoch_scale, 2.0);
  // The dead zone between 1/8 and 1/2 of the window resets the streak.
  EXPECT_EQ(loop.update(window(0.0, 0.0, 0.25)).epoch_scale, 1.0);
  EXPECT_EQ(loop.update(window(0.0, 0.0, 0.01)).epoch_scale, 1.0);
}

// ----------------------------------------------------- ZipfEstimator

TEST(ZipfEstimatorTest, UniformCountsReadAsUniform) {
  const std::vector<std::uint64_t> counts(50, 7);
  const ZipfEstimate e = ZipfEstimator().estimate(counts);
  EXPECT_DOUBLE_EQ(e.theta, 1.0);
  EXPECT_NEAR(e.alpha, 0.0, 1e-12);
  EXPECT_EQ(e.active_files, 50u);
}

TEST(ZipfEstimatorTest, SkewedCountsReadAsSkewed) {
  // counts ~ 10000 / rank: a textbook Zipf(1) profile.
  std::vector<std::uint64_t> counts;
  for (std::size_t r = 1; r <= 100; ++r) {
    counts.push_back(10'000 / static_cast<std::uint64_t>(r));
  }
  const ZipfEstimate e = ZipfEstimator().estimate(counts);
  EXPECT_LT(e.theta, 0.6);
  EXPECT_NEAR(e.alpha, 1.0, 0.25);
  EXPECT_EQ(e.active_files, 100u);

  // Zeros are ignored and layout is irrelevant (multiset semantics).
  std::vector<std::uint64_t> shuffled = counts;
  shuffled.insert(shuffled.begin(), 25, 0);
  std::swap(shuffled.front(), shuffled.back());
  const ZipfEstimate e2 = ZipfEstimator().estimate(shuffled);
  EXPECT_DOUBLE_EQ(e2.theta, e.theta);
  EXPECT_DOUBLE_EQ(e2.alpha, e.alpha);
  EXPECT_EQ(e2.active_files, 100u);
}

TEST(ZipfEstimatorTest, DegenerateInputsFallBackToDefaults) {
  const ZipfEstimate empty = ZipfEstimator().estimate({});
  EXPECT_DOUBLE_EQ(empty.theta, 1.0);
  EXPECT_DOUBLE_EQ(empty.alpha, 0.0);
  EXPECT_EQ(empty.active_files, 0u);

  const std::vector<std::uint64_t> two = {9, 3};  // < 3 ranks: no α fit
  EXPECT_DOUBLE_EQ(ZipfEstimator().estimate(two).alpha, 0.0);

  EXPECT_THROW(ZipfEstimator(0.0), std::invalid_argument);
  EXPECT_THROW(ZipfEstimator(1.0), std::invalid_argument);
}

TEST(ZipfEstimatorTest, ConvergesToTheOfflineTraceFit) {
  SyntheticWorkloadConfig wc;
  wc.file_count = 200;
  wc.request_count = 5'000;
  wc.zipf_alpha = 0.9;
  wc.seed = 20260807;
  const auto workload = generate_workload(wc);
  const TraceStats stats = compute_trace_stats(workload.trace);

  // Same files_fraction and fit width (0 = all ranks) as trace_stats:
  // the online estimate over the full counts IS the offline fit.
  const ZipfEstimate e =
      ZipfEstimator(0.2, 0).estimate(stats.access_counts);
  EXPECT_DOUBLE_EQ(e.theta, stats.theta);
  EXPECT_DOUBLE_EQ(e.alpha, stats.zipf_alpha);
}

// ------------------------------------------- session / counter helpers

std::uint64_t counter(const SimResult& sim, const std::string& name) {
  const auto it = sim.counters.find(name);
  return it == sim.counters.end() ? 0 : it->second;
}

bool has_counter(const SimResult& sim, const std::string& name) {
  return sim.counters.find(name) != sim.counters.end();
}

SyntheticWorkloadConfig small_workload_config() {
  SyntheticWorkloadConfig c;
  c.file_count = 100;
  c.request_count = 2'000;
  c.mean_interarrival = Seconds{0.35};
  c.zipf_alpha = 0.9;
  c.diurnal_depth = 0.5;
  c.seed = 20260806;
  return c;
}

SystemConfig control_system_config() {
  SystemConfig config;
  config.sim.disk_count = 8;
  config.sim.epoch = Seconds{100.0};
  return config;
}

struct SessionRun {
  std::string report_json;
  std::string events;
  SystemReport report;
};

SessionRun run_session(const SystemConfig& config, const std::string& policy,
                       const SyntheticWorkload& workload) {
  std::ostringstream events;
  JsonlTraceWriter writer(events);
  SessionRun out;
  out.report = SimulationSession(config)
                   .with_workload(workload.files, workload.trace)
                   .with_policy(policy)
                   .with_observer(writer)
                   .run();
  out.report_json = to_json(out.report);
  out.events = events.str();
  return out;
}

// ------------------------------------------ disabled == today's bytes

/// The contract the control subsystem hangs on: control disabled produces
/// byte-identical reports and event streams to a config that never
/// mentions control, and interns no control.* counter. That holds with
/// every knob set to something aggressive, and with knobs the enabled
/// path would reject (gain = -1, persistence = 0): a disabled run never
/// builds a ControlLoop, so it never validates them.
TEST(ControlSimTest, DisabledControlIsByteIdenticalWithKnobsSet) {
  ControlConfig aggressive = armed_config();
  aggressive.enabled = false;  // master switch wins
  aggressive.target_rt_ms = 0.001;
  aggressive.admit_window_s = 0.001;
  ControlConfig invalid;  // enabled = false
  invalid.gain = -1.0;
  invalid.persistence = 0;

  const auto workload = generate_workload(small_workload_config());
  for (const std::string policy : {"read", "online-read"}) {
    const SessionRun golden =
        run_session(control_system_config(), policy, workload);
    for (const ControlConfig& control : {aggressive, invalid}) {
      SystemConfig knobs = control_system_config();
      knobs.sim.control = control;
      const SessionRun off = run_session(knobs, policy, workload);

      EXPECT_EQ(off.report_json, golden.report_json) << policy;
      EXPECT_EQ(off.events, golden.events) << policy;
      EXPECT_FALSE(has_counter(off.report.sim, "control.updates")) << policy;
      EXPECT_FALSE(has_counter(off.report.sim, "control.shed_requests"))
          << policy;
    }
  }
}

TEST(ControlSimTest, CountersInternOnlyWhenEnabled) {
  const auto workload = generate_workload(small_workload_config());
  SystemConfig config = control_system_config();
  config.sim.control = armed_config();
  const SessionRun run = run_session(config, "online-read", workload);
  EXPECT_TRUE(has_counter(run.report.sim, "control.updates"));
  EXPECT_GT(counter(run.report.sim, "control.updates"), 0u);
  // Snapshots include zero-valued counters, so the whole family must be
  // present (schema stability for downstream CSV/JSON consumers).
  for (const char* name :
       {"control.shed_requests", "control.h_scaled", "control.hot_grows",
        "control.hot_shrinks", "control.epoch_scaled"}) {
    EXPECT_TRUE(has_counter(run.report.sim, name)) << name;
  }
}

// ------------------------------------------------ determinism contract

TEST(ControlSimTest, DeterministicAcrossRepeatedRuns) {
  // Every control decision, event and counter of a same-seed rerun must be
  // identical.
  const auto workload = generate_workload(small_workload_config());
  SystemConfig config = control_system_config();
  config.sim.control = armed_config();
  config.sim.control.target_rt_ms = 20.0;
  config.sim.control.admit_window_s = 2.0;
  const SessionRun first = run_session(config, "online-read", workload);
  const SessionRun second = run_session(config, "online-read", workload);
  EXPECT_FALSE(first.events.empty());
  EXPECT_EQ(second.events, first.events);
  EXPECT_EQ(second.report.sim.counters, first.report.sim.counters);
}

// --------------------------------------------------- admission window

TEST(ControlSimTest, ShedConservation) {
  // A hard burst to one file: every request routes to the same disk, the
  // FCFS backlog blows through the admission window, and the books must
  // still balance: served + shed == produced (no faults in play).
  FileSet files = []() {
    std::vector<FileInfo> f(4);
    for (std::size_t i = 0; i < f.size(); ++i) {
      f[i].id = static_cast<FileId>(i);
      f[i].size = 1 << 20;
      f[i].access_rate = 1.0;
    }
    return FileSet(std::move(f));
  }();
  Trace trace;
  for (int i = 0; i < 400; ++i) {
    Request r;
    r.arrival = Seconds{0.001 * i};
    r.file = 0;
    r.size = 1 << 20;
    trace.requests.push_back(r);
  }

  SimConfig config;
  config.disk_params = two_speed_cheetah();
  config.disk_count = 4;
  config.epoch = Seconds{50.0};
  config.control.enabled = true;
  config.control.admit_window_s = 0.25;
  ReadPolicy policy{ReadConfig{}};
  const SimResult result = run_simulation(config, files, trace, policy);

  const std::uint64_t shed = counter(result, "control.shed_requests");
  EXPECT_GT(shed, 0u);
  EXPECT_LT(shed, trace.requests.size());  // the window admits the head
  EXPECT_EQ(result.user_requests + shed, trace.requests.size());
}

// --------------------------------------------------- knob actuation

TEST(ControlSimTest, LatencyControllerScalesThresholdsUnderPressure) {
  const auto workload = generate_workload(small_workload_config());
  SystemConfig config = control_system_config();
  config.sim.control.enabled = true;
  config.sim.control.target_rt_ms = 0.001;  // unmeetable: always too slow
  const SessionRun run = run_session(config, "read", workload);
  EXPECT_GT(counter(run.report.sim, "control.updates"), 1u);
  EXPECT_GT(counter(run.report.sim, "control.h_scaled"), 0u);
}

TEST(ControlSimTest, EpochControllerStretchesCalmEpochs) {
  // Sparse steady traffic, huge admission window: every epoch is calm
  // (backlog under an eighth of the window), so after `persistence`
  // epochs the epoch length doubles.
  FileSet files = []() {
    std::vector<FileInfo> f(8);
    for (std::size_t i = 0; i < f.size(); ++i) {
      f[i].id = static_cast<FileId>(i);
      f[i].size = 4096;
      f[i].access_rate = 0.1;
    }
    return FileSet(std::move(f));
  }();
  Trace trace;
  for (int i = 0; i < 100; ++i) {
    Request r;
    r.arrival = Seconds{10.0 * i};
    r.file = static_cast<FileId>(i % 8);
    r.size = 4096;
    trace.requests.push_back(r);
  }
  SimConfig config;
  config.disk_params = two_speed_cheetah();
  config.disk_count = 4;
  config.epoch = Seconds{100.0};
  config.control.enabled = true;
  config.control.adapt_epoch = true;
  config.control.admit_window_s = 60.0;
  config.control.epoch_min_s = 50.0;
  config.control.epoch_max_s = 400.0;
  ReadPolicy policy{ReadConfig{}};
  const SimResult result = run_simulation(config, files, trace, policy);
  EXPECT_GT(counter(result, "control.epoch_scaled"), 0u);
  // Stretched epochs mean fewer boundaries than the fixed stride's
  // 1000s/100s; the clamp at epoch_max_s bounds it below.
  EXPECT_LT(counter(result, "control.updates"), 10u);
  EXPECT_GE(counter(result, "control.updates"), 3u);
}

TEST(ControlSimTest, EnergyControllerShrinksTheHotZoneOverBudget) {
  const auto workload = generate_workload(small_workload_config());
  SystemConfig config = control_system_config();
  config.sim.control.enabled = true;
  config.sim.control.energy_budget_w = 0.001;  // any spend is over budget
  const SessionRun run = run_session(config, "online-read", workload);
  EXPECT_GT(counter(run.report.sim, "control.hot_shrinks"), 0u);
  EXPECT_EQ(counter(run.report.sim, "control.hot_grows"), 0u);
}

TEST(ControlSimTest, ZipfGuardrailRefusesGrowthOnFlatLoad) {
  // Perfectly round-robin traffic: the online θ̂ reads (near) uniform, so
  // compute_zoning justifies a single hot disk and every grow request
  // from the spend-the-budget controller is refused.
  FileSet files = []() {
    std::vector<FileInfo> f(20);
    for (std::size_t i = 0; i < f.size(); ++i) {
      f[i].id = static_cast<FileId>(i);
      f[i].size = 4096;
      f[i].access_rate = 1.0;
    }
    return FileSet(std::move(f));
  }();
  Trace trace;
  for (int i = 0; i < 800; ++i) {
    Request r;
    r.arrival = Seconds{0.5 * i};
    r.file = static_cast<FileId>(i % 20);
    r.size = 4096;
    trace.requests.push_back(r);
  }
  SimConfig config;
  config.disk_params = two_speed_cheetah();
  config.disk_count = 8;
  config.epoch = Seconds{100.0};
  config.control.enabled = true;
  config.control.energy_budget_w = 1e9;  // bottomless: always grow
  OnlineReadPolicy policy;
  const SimResult result = run_simulation(config, files, trace, policy);
  EXPECT_GT(counter(result, "control.updates"), 1u);
  EXPECT_EQ(counter(result, "control.hot_grows"), 0u);
  EXPECT_EQ(policy.zoning().hot_disks, 1u);
}

// -------------------------- promotion-bar regression (decay boundary)

/// Phase-1 access counts chosen so the boundary ranking's cut falls
/// between a count-11 file and a count-10 file: after the >>1 decay both
/// collapse to 5, which is exactly the collision the floor-decayed bar
/// mishandled (a single post-boundary serve of the below-cut file would
/// out-promote the boundary ranking). The ceiling bar keeps a < b
/// implying decayed(a) < bar.
Trace bar_regression_trace(int extra_serves_of_file5) {
  const std::uint64_t counts[] = {40, 35, 30, 25, 11, 10, 8, 6, 4, 2};
  Trace trace;
  double t = 0.0;
  for (FileId f = 0; f < 10; ++f) {
    for (std::uint64_t k = 0; k < counts[f]; ++k) {
      Request r;
      r.arrival = Seconds{t};
      r.file = f;
      r.size = 4096;
      trace.requests.push_back(r);
      t += 0.6;  // 171 requests end at ~102 > nothing: all inside epoch 1
    }
  }
  // Cross the t=100 boundary with a serve of the top file (already hot,
  // no promotion in play), then the probe serves of file 5.
  Request cross;
  cross.arrival = Seconds{105.0};
  cross.file = 0;
  cross.size = 4096;
  trace.requests.push_back(cross);
  for (int i = 0; i < extra_serves_of_file5; ++i) {
    Request probe;
    probe.arrival = Seconds{106.0 + i};
    probe.file = 5;
    probe.size = 4096;
    trace.requests.push_back(probe);
  }
  return trace;
}

FileSet bar_regression_files() {
  std::vector<FileInfo> f(10);
  for (std::size_t i = 0; i < f.size(); ++i) {
    f[i].id = static_cast<FileId>(i);
    f[i].size = 1000 * (i + 1);
    f[i].access_rate = 100.0 / static_cast<double>(i + 1);
  }
  return FileSet(std::move(f));
}

SimConfig bar_regression_config() {
  SimConfig c;
  c.disk_params = two_speed_cheetah();
  c.disk_count = 4;
  c.epoch = Seconds{100.0};
  return c;
}

TEST(OnlineReadBarRegression, ColdCountsSitStrictlyBelowTheBar) {
  OnlineReadConfig oc;
  oc.decay_shift = 1;
  oc.promote_margin = 0;
  OnlineReadPolicy policy(oc);
  (void)run_simulation(bar_regression_config(), bar_regression_files(),
                       bar_regression_trace(0), policy);
  ASSERT_TRUE(policy.warmed_up());
  // Weakest top-k count 11 decays to bar ceil(11/2) = 6; the strongest
  // cold file (10 accesses) decays to 5 — the floor-bar collision.
  EXPECT_EQ(policy.promotion_bar(), 6u);
  ASSERT_FALSE(policy.is_hot_file(5));
  EXPECT_EQ(policy.decayed_counts()[5], 5u);
  // The invariant the ceiling preserves: every cold file's decayed count
  // is strictly below the bar (pre-fix, file 5 tied it).
  for (FileId f = 0; f < 10; ++f) {
    if (policy.is_hot_file(f)) continue;
    EXPECT_LT(policy.decayed_counts()[f], policy.promotion_bar()) << f;
  }
}

TEST(OnlineReadBarRegression, SingleServeAcrossDecayBoundaryCannotPromote) {
  OnlineReadConfig oc;
  oc.decay_shift = 1;
  oc.promote_margin = 0;
  OnlineReadPolicy policy(oc);
  (void)run_simulation(bar_regression_config(), bar_regression_files(),
                       bar_regression_trace(1), policy);
  // One serve lifts file 5 to the bar exactly (5+1 == 6), never past it:
  // the boundary ranking placed it strictly below the cut, so a single
  // serve is not new evidence. (The floor bar of 5 promoted here.)
  EXPECT_EQ(policy.online_promotions(), 0u);
  EXPECT_FALSE(policy.is_hot_file(5));
}

TEST(OnlineReadBarRegression, SustainedServesStillPromote) {
  OnlineReadConfig oc;
  oc.decay_shift = 1;
  oc.promote_margin = 0;
  OnlineReadPolicy policy(oc);
  (void)run_simulation(bar_regression_config(), bar_regression_files(),
                       bar_regression_trace(2), policy);
  // Two serves beat the bar (5+2 == 7 > 6): genuine demand still
  // promotes mid-epoch — the fix narrows ties, it does not freeze the
  // hot set.
  EXPECT_EQ(policy.online_promotions(), 1u);
  EXPECT_TRUE(policy.is_hot_file(5));
}

// ------------------------------------------------ [control] scenarios

constexpr const char* kControlScenario = R"([scenario]
name = ctl
seeds = 11

[system]
disks = 6
epoch = 20

[workload day]
files = 60
requests = 1500
load = 1.0

[policy read]
[policy online-read]

[control]
target_rt_ms = 25
admit_window = 2.0
adapt_epoch = true
energy_budget_w = 120
)";

TEST(ControlScenarioTest, ParserReadsTheControlSection) {
  const ScenarioSpec spec = parse_scenario(kControlScenario, "ctl.ini");
  EXPECT_TRUE(spec.control.enabled);
  EXPECT_DOUBLE_EQ(spec.control.config.target_rt_ms, 25.0);
  EXPECT_DOUBLE_EQ(spec.control.config.admit_window_s, 2.0);
  EXPECT_TRUE(spec.control.config.adapt_epoch);
  EXPECT_DOUBLE_EQ(spec.control.config.energy_budget_w, 120.0);
  // Untouched knobs keep their defaults.
  EXPECT_DOUBLE_EQ(spec.control.config.gain, 0.5);
  EXPECT_EQ(spec.control.config.persistence, 2u);
}

TEST(ControlScenarioTest, ValidationRejectsBadKnobsAndFleet) {
  // Knob validation is the ControlLoop's, surfaced with scenario context.
  EXPECT_THROW((void)parse_scenario("[scenario]\nname = bad\n"
                                    "[control]\ngain = -1\n[policy read]\n"),
               std::invalid_argument);
  // Unknown keys carry file:line diagnostics.
  try {
    (void)parse_scenario("[control]\nnope = 1\n[policy read]\n", "c.ini");
    FAIL() << "expected invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("c.ini:2:"), std::string::npos)
        << e.what();
  }
  // [control] does not compose with [fleet] (shards share no window).
  EXPECT_THROW(
      (void)parse_scenario("[scenario]\nname = f\n[fleet]\nshards = 2\n"
                           "[control]\nadmit_window = 1\n[policy read]\n"),
      std::invalid_argument);
}

TEST(ControlScenarioTest, CsvWidensAndThreadsAreByteIdentical) {
  const ScenarioSpec spec = parse_scenario(kControlScenario, "ctl.ini");
  auto csv_of = [](const ScenarioResult& result) {
    std::ostringstream out;
    write_scenario_csv(result, out);
    return out.str();
  };

  const ScenarioResult result = run_scenario(spec);
  EXPECT_TRUE(result.controlled);
  ASSERT_EQ(result.cells.size(), 2u);
  for (const ScenarioCell& cell : result.cells) {
    ASSERT_TRUE(cell.control.has_value());
    EXPECT_GT(cell.control->updates, 0u);
  }
  const std::string golden = csv_of(result);
  EXPECT_NE(golden.find(",control_updates,control_shed,control_h_scaled,"
                        "control_hot_grows,control_hot_shrinks,"
                        "control_epoch_scaled"),
            std::string::npos);

  // threads = 1 and threads = N: byte-identical CSV, control included.
  ScenarioSpec threaded = spec;
  threaded.threads = 4;
  EXPECT_EQ(csv_of(run_scenario(threaded)), golden);

  // A control-less spec keeps the narrow schema byte-for-byte.
  ScenarioSpec plain = spec;
  plain.control = ScenarioControl{};
  const ScenarioResult off = run_scenario(plain);
  EXPECT_FALSE(off.controlled);
  EXPECT_EQ(csv_of(off).find("control_updates"), std::string::npos);
}

}  // namespace
}  // namespace pr
