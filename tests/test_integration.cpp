// Integration tests: full workload → simulator → PRESS pipeline, checking
// the cross-policy invariants the paper's evaluation (§5.2) rests on.
#include <gtest/gtest.h>

#include <cmath>

#include "core/session.h"
#include "policy/drpm_policy.h"
#include "policy/hibernator_policy.h"
#include "policy/maid_policy.h"
#include "policy/pdc_policy.h"
#include "policy/read_policy.h"
#include "policy/static_policy.h"
#include "workload/synthetic.h"

namespace pr {
namespace {

/// A compressed WC98-like day: same skew/shape, fewer requests, faster to
/// simulate. Arrivals sparse enough that DPM actually engages.
SyntheticWorkloadConfig test_workload_config(std::uint64_t seed = 42) {
  SyntheticWorkloadConfig c;
  c.file_count = 600;
  c.request_count = 80'000;
  c.mean_interarrival = Seconds{0.25};
  c.zipf_alpha = 0.8;
  c.diurnal_depth = 0.5;
  c.seed = seed;
  return c;
}

SystemConfig system_config(std::size_t disks) {
  SystemConfig c;
  c.sim.disk_count = disks;
  c.sim.epoch = Seconds{1800.0};
  return c;
}

/// The old run_session() call shape, routed through the one front door
/// (core/session.h) so these tests keep reading as one-liners.
SystemReport run_session(const SystemConfig& cfg, const FileSet& files,
                         const Trace& trace, Policy& policy) {
  return SimulationSession(cfg)
      .with_workload(files, trace)
      .with_policy(policy)
      .run();
}

struct PipelineFixture : public ::testing::Test {
  void SetUp() override {
    workload = generate_workload(test_workload_config());
  }
  SyntheticWorkload workload;
};

TEST_F(PipelineFixture, EveryPolicyServesEveryRequest) {
  const auto cfg = system_config(8);
  ReadPolicy read;
  MaidPolicy maid;
  PdcPolicy pdc;
  StaticPolicy none;
  DrpmPolicy drpm;
  HibernatorPolicy hibernator;
  for (Policy* p : std::initializer_list<Policy*>{&read, &maid, &pdc, &none,
                                                  &drpm, &hibernator}) {
    const auto report = run_session(cfg, workload.files, workload.trace, *p);
    EXPECT_EQ(report.sim.user_requests, workload.trace.size()) << p->name();
    std::uint64_t served = 0;
    for (const auto& l : report.sim.ledgers) served += l.requests;
    EXPECT_EQ(served, workload.trace.size()) << p->name();
    EXPECT_GT(report.sim.mean_response_time_s(), 0.0) << p->name();
    EXPECT_GT(report.sim.energy_joules(), 0.0) << p->name();
    EXPECT_GT(report.array_afr, 0.0) << p->name();
    EXPECT_LE(report.array_afr, 1.0) << p->name();
  }
}

TEST_F(PipelineFixture, EveryLedgerCoversTheHorizon) {
  const auto cfg = system_config(8);
  ReadPolicy read;
  const auto report = run_session(cfg, workload.files, workload.trace, read);
  for (const auto& l : report.sim.ledgers) {
    EXPECT_NEAR(l.observed().value(), report.sim.horizon.value(),
                1e-6 * report.sim.horizon.value());
  }
}

TEST_F(PipelineFixture, EnergySavingSchemesBeatStatic) {
  const auto cfg = system_config(8);
  ReadPolicy read;
  MaidPolicy maid;
  StaticPolicy none;
  const double e_read =
      run_session(cfg, workload.files, workload.trace, read).sim.energy_joules();
  const double e_maid =
      run_session(cfg, workload.files, workload.trace, maid).sim.energy_joules();
  const double e_static =
      run_session(cfg, workload.files, workload.trace, none).sim.energy_joules();
  EXPECT_LT(e_read, e_static);
  EXPECT_LT(e_maid, e_static);
}

TEST_F(PipelineFixture, ReadBeatsBaselinesOnReliability) {
  // The paper's headline (§5.2): READ consistently outperforms MAID and
  // PDC in reliability. Checked here on a compressed day at one array
  // size; the Fig. 7 bench sweeps the full grid.
  const auto cfg = system_config(8);
  ReadPolicy read;
  MaidPolicy maid;
  PdcPolicy pdc;
  const double afr_read =
      run_session(cfg, workload.files, workload.trace, read).array_afr;
  const double afr_maid =
      run_session(cfg, workload.files, workload.trace, maid).array_afr;
  const double afr_pdc =
      run_session(cfg, workload.files, workload.trace, pdc).array_afr;
  EXPECT_LE(afr_read, afr_maid);
  EXPECT_LE(afr_read, afr_pdc);
}

TEST_F(PipelineFixture, ReadRespectsTransitionCap) {
  const auto cfg = system_config(8);
  ReadConfig rc;
  rc.max_transitions_per_day = 40;
  ReadPolicy read(rc);
  const auto report = run_session(cfg, workload.files, workload.trace, read);
  const double days = report.sim.horizon.value() / kSecondsPerDay.value();
  for (const auto& l : report.sim.ledgers) {
    EXPECT_LE(static_cast<double>(l.transitions),
              40.0 * std::max(1.0, std::ceil(days)) + 1.0);
  }
}

TEST_F(PipelineFixture, ReadUtilizationIsMoreEvenThanPdc) {
  // §4: READ "generates a more uniform disk utilization distribution";
  // PDC concentrates by design.
  const auto cfg = system_config(8);
  ReadPolicy read;
  PdcPolicy pdc;
  const auto r_read = run_session(cfg, workload.files, workload.trace, read);
  const auto r_pdc = run_session(cfg, workload.files, workload.trace, pdc);
  EXPECT_LT(r_read.sim.utilization_stddev() / (r_read.sim.mean_utilization() + 1e-12),
            r_pdc.sim.utilization_stddev() / (r_pdc.sim.mean_utilization() + 1e-12));
}

TEST_F(PipelineFixture, DeterministicEndToEnd) {
  const auto cfg = system_config(6);
  ReadPolicy p1;
  ReadPolicy p2;
  const auto a = run_session(cfg, workload.files, workload.trace, p1);
  const auto b = run_session(cfg, workload.files, workload.trace, p2);
  EXPECT_DOUBLE_EQ(a.sim.energy_joules(), b.sim.energy_joules());
  EXPECT_DOUBLE_EQ(a.sim.mean_response_time_s(), b.sim.mean_response_time_s());
  EXPECT_DOUBLE_EQ(a.array_afr, b.array_afr);
  EXPECT_EQ(a.sim.total_transitions, b.sim.total_transitions);
  EXPECT_EQ(a.sim.migrations, b.sim.migrations);
}

TEST_F(PipelineFixture, SummaryMentionsKeyMetrics) {
  const auto cfg = system_config(6);
  ReadPolicy read;
  const auto report = run_session(cfg, workload.files, workload.trace, read);
  const std::string s = report.summary();
  EXPECT_NE(s.find("READ"), std::string::npos);
  EXPECT_NE(s.find("mean response"), std::string::npos);
  EXPECT_NE(s.find("energy"), std::string::npos);
  EXPECT_NE(s.find("AFR"), std::string::npos);
}

TEST_F(PipelineFixture, ScoreReusesSimResult) {
  const auto cfg = system_config(6);
  ReadPolicy read;
  auto sim = run_simulation(cfg.sim, workload.files, workload.trace, read);
  const auto report_sum = score(PressModel{{IntegratorStrategy::kSum}}, sim);
  const auto report_max = score(PressModel{{IntegratorStrategy::kMax}}, sim);
  // Sum dominates max for identical inputs.
  EXPECT_GE(report_sum.array_afr, report_max.array_afr);
  ASSERT_EQ(report_sum.disk_press.size(), cfg.sim.disk_count);
}


TEST_F(PipelineFixture, PowerManagementBaselinesNeverExceedStatic) {
  // DRPM (gentle) undercuts Static on this sparse day. Hibernator parks
  // by load imbalance, and the round-robin layout here is balanced, so it
  // degenerates to Static — but must never cost *more* (its unit tests
  // cover the parking path on skewed layouts).
  const auto cfg = system_config(8);
  DrpmPolicy drpm;
  HibernatorPolicy hibernator;
  StaticPolicy none;
  const double e_static =
      run_session(cfg, workload.files, workload.trace, none).sim.energy_joules();
  EXPECT_LT(
      run_session(cfg, workload.files, workload.trace, drpm).sim.energy_joules(),
      e_static);
  EXPECT_LE(run_session(cfg, workload.files, workload.trace, hibernator)
                .sim.energy_joules(),
            e_static * (1.0 + 1e-9));
}

TEST_F(PipelineFixture, HalvedIdemaScoringKeepsReadCompetitive) {
  // PRESS with the construction-chain frequency curve instead of Eq. 3:
  // the frequency signal is far weaker there (see EXPERIMENTS.md), so the
  // policies converge — READ must never be *materially* worse than the
  // baselines under it (within half an AFR point).
  SystemConfig cfg = system_config(8);
  cfg.press.frequency_curve = FrequencyCurve::kHalvedIdema;
  ReadPolicy read;
  MaidPolicy maid;
  PdcPolicy pdc;
  const double afr_read =
      run_session(cfg, workload.files, workload.trace, read).array_afr;
  const double afr_maid =
      run_session(cfg, workload.files, workload.trace, maid).array_afr;
  const double afr_pdc =
      run_session(cfg, workload.files, workload.trace, pdc).array_afr;
  EXPECT_LE(afr_read, afr_maid + 0.005);
  EXPECT_LE(afr_read, afr_pdc + 0.005);
}

TEST_F(PipelineFixture, ThermalLagAttributionStaysInBands) {
  SystemConfig cfg = system_config(8);
  cfg.sim.temperature_attribution = TemperatureAttribution::kThermalLag;
  ReadPolicy read;
  const auto report = run_session(cfg, workload.files, workload.trace, read);
  for (const auto& t : report.sim.telemetry) {
    EXPECT_GE(t.temperature.value(), 40.0 - 1e-9);
    EXPECT_LE(t.temperature.value(), 50.0 + 1e-9);
  }
}

}  // namespace
}  // namespace pr
