// Chaos testing of the array simulator: a policy that makes random (but
// contract-valid) decisions — scattered placement, random DPM knobs,
// random migrations, copies and transitions at epochs, random routing to
// replicas it invents on the fly, optionally random stripes. Whatever a
// policy does within the API, the simulator's global invariants must
// survive — alone (SimChaos) and combined with seeded draws of the fault,
// redundancy, rebuild and control subsystems (SimChaosCombo).
// Parameterized over seeds for reproducible shrinking.
#include <gtest/gtest.h>

#include <limits>
#include <string>
#include <vector>

#include "energy_auditor.h"
#include "golden_dump.h"
#include "redundancy/scheme.h"
#include "sim/array_sim.h"
#include "util/rng.h"
#include "workload/synthetic.h"

namespace pr {
namespace {

class ChaosPolicy final : public Policy {
 public:
  explicit ChaosPolicy(std::uint64_t seed, bool striped = false)
      : rng_(seed), striped_(striped) {}

  std::string name() const override { return "Chaos"; }
  bool striped() const override { return striped_; }

  void initialize(ArrayContext& ctx) override {
    for (DiskId d = 0; d < ctx.disk_count(); ++d) {
      ctx.set_initial_speed(d, rng_.bernoulli(0.5) ? DiskSpeed::kHigh
                                                   : DiskSpeed::kLow);
      DpmConfig dpm;
      dpm.spin_down_when_idle = rng_.bernoulli(0.6);
      dpm.idleness_threshold = Seconds{rng_.uniform(0.5, 30.0)};
      dpm.spin_up_to_serve = rng_.bernoulli(0.5);
      if (rng_.bernoulli(0.3)) {
        dpm.spin_up_backlog = Seconds{rng_.uniform(0.01, 1.0)};
      }
      ctx.set_dpm(d, dpm);
    }
    for (FileId f = 0; f < ctx.files().size(); ++f) {
      ctx.place(f, static_cast<DiskId>(rng_.uniform_index(ctx.disk_count())));
    }
  }

  DiskId route(ArrayContext& ctx, const Request& req) override {
    // Mostly honest routing; occasionally serve from a random disk (a
    // policy is allowed to: think caches/replicas).
    if (rng_.bernoulli(0.9)) return ctx.location(req.file);
    return static_cast<DiskId>(rng_.uniform_index(ctx.disk_count()));
  }

  std::vector<StripeChunk> stripe(ArrayContext& ctx,
                                  const Request& req) override {
    // One to three chunks: the file's home disk first, then random disks
    // (repeats allowed), halving the remaining bytes each time.
    const std::size_t k = 1 + rng_.uniform_index(3);
    std::vector<StripeChunk> chunks;
    Bytes left = req.size;
    for (std::size_t i = 0; i < k && (left > 0 || chunks.empty()); ++i) {
      const DiskId d =
          i == 0 ? ctx.location(req.file)
                 : static_cast<DiskId>(rng_.uniform_index(ctx.disk_count()));
      const Bytes bytes = i + 1 == k || left < 2 ? left : left / 2;
      chunks.push_back(StripeChunk{d, bytes});
      left -= bytes;
    }
    return chunks;
  }

  void after_serve(ArrayContext& ctx, const Request& req, DiskId d) override {
    if (rng_.bernoulli(0.02)) {
      ctx.background_copy(
          d, static_cast<DiskId>(rng_.uniform_index(ctx.disk_count())),
          req.size);
    }
    if (rng_.bernoulli(0.05)) ctx.bump("chaos.note");
  }

  void on_epoch(ArrayContext& ctx, Seconds now) override {
    (void)now;
    for (int i = 0; i < 5; ++i) {
      const auto f =
          static_cast<FileId>(rng_.uniform_index(ctx.files().size()));
      ctx.migrate(f,
                  static_cast<DiskId>(rng_.uniform_index(ctx.disk_count())));
      ++migrations_requested_;
    }
    if (rng_.bernoulli(0.5)) {
      const auto d =
          static_cast<DiskId>(rng_.uniform_index(ctx.disk_count()));
      ctx.request_transition(d, rng_.bernoulli(0.5) ? DiskSpeed::kHigh
                                                    : DiskSpeed::kLow);
    }
    if (rng_.bernoulli(0.3)) {
      const auto d =
          static_cast<DiskId>(rng_.uniform_index(ctx.disk_count()));
      ctx.set_idleness_threshold(d, Seconds{rng_.uniform(0.5, 60.0)});
    }
  }

  bool allow_spin_down(ArrayContext&, DiskId, Seconds) override {
    return rng_.bernoulli(0.8);
  }

  std::uint64_t migrations_requested_ = 0;

 private:
  Rng rng_;
  bool striped_;
};

class SimChaos : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SimChaos, InvariantsSurviveArbitraryPolicyBehaviour) {
  SyntheticWorkloadConfig wc;
  wc.file_count = 150;
  wc.request_count = 15'000;
  wc.mean_interarrival = Seconds{0.05};
  wc.seed = GetParam() * 977 + 13;
  wc.burstiness = 0.4;
  const auto w = generate_workload(wc);

  SimConfig cfg;
  cfg.disk_params = two_speed_cheetah();
  cfg.disk_count = 5;
  cfg.epoch = Seconds{30.0};
  if (GetParam() % 2 == 0) cfg.seek_curve = cheetah_seek_curve();

  ChaosPolicy policy(GetParam());
  const auto result = run_simulation(cfg, w.files, w.trace, policy);

  // Every user request served exactly once.
  EXPECT_EQ(result.user_requests, w.trace.size());
  std::uint64_t served = 0;
  for (const auto& l : result.ledgers) served += l.requests;
  EXPECT_EQ(served, w.trace.size());

  // Every instant of every disk attributed exactly once.
  for (const auto& l : result.ledgers) {
    EXPECT_NEAR(l.observed().value(), result.horizon.value(),
                1e-6 * result.horizon.value());
    EXPECT_GE(l.utilization(), 0.0);
    EXPECT_LE(l.utilization(), 1.0);
    EXPECT_GE(l.max_transitions_in_day, 0u);
    EXPECT_LE(l.max_transitions_in_day, l.transitions);
  }

  // Energy within physical bounds.
  const double horizon = result.horizon.value();
  const double floor =
      2.9 * horizon * static_cast<double>(cfg.disk_count);
  double lumps = 0.0;
  for (const auto& l : result.ledgers) {
    lumps += static_cast<double>(l.transitions_up) * 135.0 +
             static_cast<double>(l.transitions - l.transitions_up) * 13.0;
  }
  const double ceiling =
      13.5 * horizon * static_cast<double>(cfg.disk_count) + lumps;
  EXPECT_GE(result.total_energy.value(), floor - 1e-6);
  EXPECT_LE(result.total_energy.value(), ceiling + 1e-6);

  // Response times are positive and finite.
  EXPECT_GT(result.response_time.min(), 0.0);
  EXPECT_TRUE(std::isfinite(result.response_time.max()));

  // Migration accounting consistent (some chaos migrations are no-ops
  // when the random target equals the current disk).
  EXPECT_LE(result.migrations, policy.migrations_requested_);

  // Telemetry stays inside the model's envelope.
  for (const auto& t : result.telemetry) {
    EXPECT_GE(t.temperature.value(), 40.0 - 1e-9);
    EXPECT_LE(t.temperature.value(), 50.0 + 1e-9);
    EXPECT_GE(t.transitions_per_day, 0.0);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SimChaos,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u, 6u, 7u, 8u));

std::uint64_t counter(const SimResult& r, const std::string& name) {
  const auto it = r.counters.find(name);
  return it == r.counters.end() ? 0 : it->second;
}

/// Each disk's fail-to-recover intervals under the plan alone (a kFail on
/// a failed disk and a kRecover on a live one change nothing; an interval
/// never recovered stays open). The simulator's failed set is always a
/// subset of this one — a completed rebuild only recovers a disk early.
struct FailInterval {
  DiskId disk;
  double from;
  double to;
};

std::vector<FailInterval> fail_intervals(const FaultPlan& plan,
                                         std::size_t disks) {
  constexpr double kOpen = std::numeric_limits<double>::infinity();
  std::vector<double> since(disks, kOpen);
  std::vector<FailInterval> out;
  for (const FaultEvent& e : plan.events()) {
    const double t = e.time.value();
    if (e.kind == FaultKind::kFail && since[e.disk] == kOpen) {
      since[e.disk] = t;
    } else if (e.kind == FaultKind::kRecover && since[e.disk] != kOpen) {
      out.push_back({e.disk, since[e.disk], t});
      since[e.disk] = kOpen;
    }
  }
  for (DiskId d = 0; d < disks; ++d) {
    if (since[d] != kOpen) out.push_back({d, since[d], kOpen});
  }
  return out;
}

/// True when two different disks the layout cannot lose together were
/// failed at a common instant under the plan.
bool overlapping_failures_in_one_domain(const RedundancyScheme& scheme,
                                        const std::vector<FailInterval>& iv) {
  for (const FailInterval& a : iv) {
    for (const FailInterval& b : iv) {
      if (a.disk != b.disk && scheme.loses_data(a.disk, b.disk) &&
          a.from <= b.to && b.from <= a.to) {
        return true;
      }
    }
  }
  return false;
}

class SimChaosCombo : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SimChaosCombo, InvariantsHoldAcrossSubsystemCombinations) {
  Rng draw(GetParam() * 7919 + 5);
  SyntheticWorkloadConfig wc;
  wc.file_count = 120;
  wc.request_count = 8'000;
  wc.mean_interarrival = Seconds{0.05};
  wc.seed = GetParam() * 131 + 7;
  wc.burstiness = 0.4;
  const auto w = generate_workload(wc);
  const double span = w.trace.requests.back().arrival.value();

  SimConfig cfg;
  cfg.disk_params = two_speed_cheetah();
  cfg.disk_count = 6;
  cfg.epoch = Seconds{30.0};

  // Redundancy {none, raid5, declustered} × rebuild on/off, groups of 3.
  const RedundancyKind kinds[] = {RedundancyKind::kNone, RedundancyKind::kRaid5,
                                  RedundancyKind::kDeclustered};
  cfg.redundancy.kind = kinds[draw.uniform_index(3)];
  cfg.redundancy.group = 3;
  cfg.redundancy.rebuild = draw.bernoulli(0.5);
  cfg.redundancy.rebuild_mbps = draw.uniform(0.5, 20.0);
  cfg.redundancy.rebuild_chunk = 256 * kKiB;

  // Control on/off: latency controller, sometimes an admission window
  // (shedding) and an adaptive epoch.
  cfg.control.enabled = draw.bernoulli(0.5);
  cfg.control.target_rt_ms = 20.0;
  cfg.control.admit_window_s = draw.bernoulli(0.5) ? 0.05 : 0.0;
  cfg.control.adapt_epoch = draw.bernoulli(0.5);
  cfg.control.epoch_min_s = 10.0;

  // A fault plan of fail, recover and slowdown events; the first one a
  // failure, so every seed runs degraded for a while.
  std::vector<FaultEvent> events;
  const std::size_t event_count = 1 + draw.uniform_index(8);
  for (std::size_t i = 0; i < event_count; ++i) {
    FaultEvent e;
    e.time = Seconds{draw.uniform(0.0, span)};
    e.disk = static_cast<DiskId>(draw.uniform_index(cfg.disk_count));
    const std::uint64_t kind = i == 0 ? 0 : draw.uniform_index(3);
    e.kind = kind == 0   ? FaultKind::kFail
             : kind == 1 ? FaultKind::kRecover
                         : FaultKind::kSlowdown;
    if (e.kind == FaultKind::kSlowdown) e.factor = draw.uniform(1.0, 4.0);
    events.push_back(e);
  }
  const FaultPlan plan = FaultPlan::from_events(events);
  const bool striped = draw.bernoulli(0.5);

  const auto run = [&](SimObserver* observer = nullptr) {
    ChaosPolicy policy(GetParam(), striped);
    return run_simulation(cfg, w.files, w.trace, policy, observer, &plan);
  };
  const SimResult result = run();
  const std::string combo =
      "redundancy=" + std::to_string(static_cast<int>(cfg.redundancy.kind)) +
      " rebuild=" + std::to_string(cfg.redundancy.rebuild) +
      " control=" + std::to_string(cfg.control.enabled) +
      " striped=" + std::to_string(striped);

  // Every request is served, lost or shed — exactly one of the three.
  EXPECT_EQ(result.user_requests + counter(result, "sim.requests_lost") +
                counter(result, "control.shed_requests"),
            w.trace.size())
      << combo;

  // Every disk's ledger covers the horizon. It may reach past it: the
  // horizon is the last request's completion, and a background copy the
  // policy queues behind that request still runs (seed 22).
  for (const auto& l : result.ledgers) {
    EXPECT_GE(l.observed().value(),
              result.horizon.value() * (1.0 - 1e-9))
        << combo;
  }

  // Data loss only when two failures overlapped inside one protection
  // domain.
  const std::uint64_t losses =
      counter(result, "redundancy.data_loss_events");
  if (losses > 0) {
    const auto scheme = make_scheme(cfg.redundancy, cfg.disk_count);
    ASSERT_NE(scheme, nullptr) << combo;
    EXPECT_TRUE(overlapping_failures_in_one_domain(
        *scheme, fail_intervals(plan, cfg.disk_count)))
        << combo;
  }

  // Deterministic: a rerun is byte-identical.
  EXPECT_EQ(golden::dump_result(run()), golden::dump_result(result)) << combo;

  // Energy is conserved: the event energies add up to the run's total,
  // which equals the sum of the ledgers; watching the run moves no byte.
  EnergyAuditor audit;
  const SimResult observed = run(&audit);
  EXPECT_EQ(golden::dump_result(observed), golden::dump_result(result))
      << combo;
  double ledger_energy = 0.0;
  for (const auto& l : result.ledgers) ledger_energy += l.energy.value();
  ASSERT_GT(audit.total(), 0.0) << combo;
  const double tolerance = 1e-9 * audit.total();
  EXPECT_NEAR(audit.sum(), audit.total(), tolerance) << combo;
  EXPECT_NEAR(audit.total(), result.total_energy.value(), tolerance)
      << combo;
  EXPECT_NEAR(audit.total(), ledger_energy, tolerance) << combo;
}

INSTANTIATE_TEST_SUITE_P(Seeds, SimChaosCombo,
                         ::testing::Range<std::uint64_t>(1, 25));

}  // namespace
}  // namespace pr
