// Redundancy layer (src/redundancy): scheme geometry and data-loss
// predicates, the RebuildScheduler's pacing, the simulator seam (RAID-5 /
// declustered degraded reads reconstruct instead of losing requests, the
// rebuild engine wakes disks and recovers them through the fault
// machinery), the MTTDL loop closure, the [redundancy] scenario section,
// and the determinism contracts — fault-free runs with a parity config
// are byte-identical to redundancy=none, same-seed faulted parity runs
// are byte-identical, and fleet cells are byte-identical for threads = 1
// vs N.
#include "redundancy/scheme.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/session.h"
#include "exp/scenario.h"
#include "exp/scenario_engine.h"
#include "exp/scenario_report.h"
#include "fault/degradation_analyzer.h"
#include "fault/fault_plan.h"
#include "fault/fault_state.h"
#include "obs/jsonl_writer.h"
#include "press/mttdl_agreement.h"
#include "redundancy/rebuild.h"
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

SimConfig config(std::size_t disks, RedundancyKind kind,
                 std::size_t group = 0, bool rebuild = true) {
  SimConfig c;
  c.disk_params = two_speed_cheetah();
  c.disk_count = disks;
  c.redundancy.kind = kind;
  c.redundancy.group = group;
  c.redundancy.rebuild = rebuild;
  return c;
}

/// Places file f on disk f % n (same shape as test_fault's ProbePolicy).
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

/// Collects every redundancy-facing callback for ordering/content checks.
class RebuildRecorder : public SimObserver {
 public:
  void on_request_degraded(const RequestDegradedEvent& e) override {
    degraded.push_back(e);
  }
  void on_request_complete(const RequestCompleteEvent& e) override {
    completions.push_back(e);
  }
  void on_speed_transition(const SpeedTransitionEvent& e) override {
    transitions.push_back(e);
  }
  void on_migration(const MigrationEvent& e) override {
    migrations.push_back(e);
  }
  void on_background_copy(const BackgroundCopyEvent& e) override {
    copies.push_back(e);
  }
  void on_disk_recover(const DiskRecoverEvent& e) override {
    recovers.push_back(e);
  }
  void on_rebuild_start(const RebuildStartEvent& e) override {
    starts.push_back(e);
  }
  void on_rebuild_progress(const RebuildProgressEvent& e) override {
    progress.push_back(e);
  }
  void on_rebuild_complete(const RebuildCompleteEvent& e) override {
    completes.push_back(e);
  }
  void on_stripe_reconstruct(const StripeReconstructEvent& e) override {
    reconstructs.push_back(e);
  }
  void on_run_end(const RunEndEvent& e) override { run_end = e; }

  std::vector<RequestDegradedEvent> degraded;
  std::vector<RequestCompleteEvent> completions;
  std::vector<SpeedTransitionEvent> transitions;
  std::vector<MigrationEvent> migrations;
  std::vector<BackgroundCopyEvent> copies;
  std::vector<DiskRecoverEvent> recovers;
  std::vector<RebuildStartEvent> starts;
  std::vector<RebuildProgressEvent> progress;
  std::vector<RebuildCompleteEvent> completes;
  std::vector<StripeReconstructEvent> reconstructs;
  RunEndEvent run_end;
};

// ------------------------------------------------------------ scheme basics

TEST(RedundancyScheme, ValidateRejectsBadGeometry) {
  RedundancyConfig c;
  c.kind = RedundancyKind::kRaid5;
  EXPECT_NO_THROW(validate_redundancy(c, 8));  // group 0 = whole array
  c.group = 4;
  EXPECT_NO_THROW(validate_redundancy(c, 8));
  c.group = 3;  // 8 % 3 != 0
  EXPECT_THROW(validate_redundancy(c, 8), std::invalid_argument);
  c.group = 1;  // parity needs >= 2 members
  EXPECT_THROW(validate_redundancy(c, 8), std::invalid_argument);
  c.group = 9;  // wider than the array
  EXPECT_THROW(validate_redundancy(c, 8), std::invalid_argument);

  c.kind = RedundancyKind::kDeclustered;
  c.group = 3;  // declustered has no divisibility constraint
  EXPECT_NO_THROW(validate_redundancy(c, 8));

  c.rebuild_mbps = 0.0;
  EXPECT_THROW(validate_redundancy(c, 8), std::invalid_argument);
  c.rebuild_mbps = 32.0;
  c.rebuild_chunk = 0;
  EXPECT_THROW(validate_redundancy(c, 8), std::invalid_argument);
}

TEST(RedundancyScheme, MakeSchemeResolvesKindsAndNone) {
  RedundancyConfig none;
  EXPECT_EQ(make_scheme(none, 8), nullptr);

  RedundancyConfig r5;
  r5.kind = RedundancyKind::kRaid5;
  r5.group = 4;
  const auto raid5 = make_scheme(r5, 8);
  ASSERT_NE(raid5, nullptr);
  EXPECT_EQ(raid5->name(), "raid5");
  EXPECT_TRUE(raid5->parity());

  RedundancyConfig dc;
  dc.kind = RedundancyKind::kDeclustered;
  const auto declustered = make_scheme(dc, 8);
  ASSERT_NE(declustered, nullptr);
  EXPECT_EQ(declustered->name(), "declustered");
  EXPECT_TRUE(declustered->parity());
}

TEST(RedundancyScheme, LossPredicatesMatchTheLayouts) {
  // RAID-5 in groups of 4: loss iff both failures land in one group.
  Raid5Scheme raid5(8, 4);
  EXPECT_TRUE(raid5.loses_data(0, 3));
  EXPECT_TRUE(raid5.loses_data(5, 6));
  EXPECT_FALSE(raid5.loses_data(3, 4));
  EXPECT_FALSE(raid5.loses_data(0, 7));

  // Declustered parity couples every disk pair: some stripe always spans
  // both, so any overlap is loss — the classic declustering trade-off.
  DeclusteredScheme declustered(8, 4);
  EXPECT_TRUE(declustered.loses_data(0, 7));
  EXPECT_TRUE(declustered.loses_data(3, 4));
  EXPECT_FALSE(declustered.loses_data(2, 2));
}

// ------------------------------------------------- exhaustive layout sweep

void fail(FaultState& faults, DiskId d) {
  faults.apply(FaultEvent{Seconds{0.0}, d, FaultKind::kFail, 1.0});
}

/// The disks of a serve list, in serve order.
std::vector<DiskId> disks_of(const std::vector<StripeChunk>& serves) {
  std::vector<DiskId> out;
  for (const StripeChunk& c : serves) out.push_back(c.disk);
  return out;
}

// Every parity geometry up to 12 disks (RAID-5 with each group size that
// divides n, declustered with each group size in [2, n]), every failed
// disk, every second failure and a run of stripe salts — checked through
// the seam the planner uses, degraded_read and rebuild_sources.
TEST(ParityLayout, ExhaustiveDegradedReadsAndRebuildSources) {
  constexpr Bytes kBytes = 4096;
  for (std::size_t n = 2; n <= 12; ++n) {
    SimConfig sc;
    sc.disk_params = two_speed_cheetah();
    sc.disk_count = n;
    const FileSet files = two_files();
    ArrayContext ctx(sc, files);
    // Two windows of n−1 consecutive salts, so a window may start anywhere
    // in the rotation.
    const FileId salts = static_cast<FileId>(2 * (n - 1));
    for (std::size_t g = 2; g <= n; ++g) {
      std::vector<std::unique_ptr<ParityScheme>> layouts;
      if (n % g == 0) layouts.push_back(std::make_unique<Raid5Scheme>(n, g));
      layouts.push_back(std::make_unique<DeclusteredScheme>(n, g));
      for (const auto& layout : layouts) {
        const bool raid5 = layout->name() == "raid5";
        for (DiskId f = 0; f < n; ++f) {
          const std::string where = layout->name() + " n=" +
                                    std::to_string(n) + " g=" +
                                    std::to_string(g) + " failed=" +
                                    std::to_string(f);
          FaultState one;
          one.resize(n);
          fail(one, f);
          std::vector<std::vector<DiskId>> partners(salts);
          for (FileId salt = 0; salt < salts; ++salt) {
            std::vector<StripeChunk> serves;
            ASSERT_TRUE(layout->degraded_read(ctx, one, salt, kBytes, f,
                                              serves))
                << where;
            // g−1 distinct live disks, each reading the chunk's bytes.
            ASSERT_EQ(serves.size(), g - 1) << where;
            std::vector<int> seen(n, 0);
            for (const StripeChunk& c : serves) {
              ASSERT_LT(c.disk, n) << where;
              EXPECT_NE(c.disk, f) << where;
              EXPECT_EQ(c.bytes, kBytes) << where;
              EXPECT_EQ(++seen[c.disk], 1) << where << " disk " << c.disk;
              if (raid5) {
                EXPECT_EQ(c.disk / g, f / g) << where;  // inside f's group
              }
            }
            partners[salt] = disks_of(serves);
            std::vector<DiskId> sources;
            layout->rebuild_sources(one, f, salt, sources);
            EXPECT_EQ(sources, partners[salt]) << where << " salt " << salt;

            for (DiskId x = 0; x < n; ++x) {
              if (x == f) continue;
              FaultState two = one;
              fail(two, x);
              const bool in_partners = seen[x] != 0;
              std::vector<StripeChunk> degraded;
              EXPECT_EQ(layout->degraded_read(ctx, two, salt, kBytes, f,
                                              degraded),
                        !in_partners)
                  << where << " second=" << x << " salt " << salt;
              if (in_partners) {
                EXPECT_TRUE(layout->loses_data(f, x)) << where;
              }
              std::vector<DiskId> expected;
              for (const DiskId p : partners[salt]) {
                if (p != x) expected.push_back(p);
              }
              sources.clear();
              layout->rebuild_sources(two, f, salt, sources);
              EXPECT_EQ(sources, expected)
                  << where << " second=" << x << " salt " << salt;
            }
          }
          if (raid5) continue;
          // Declustering: any n−1 consecutive salts load every survivor
          // equally, g−1 reads each.
          for (FileId start = 0; start + (n - 1) <= salts; ++start) {
            std::vector<std::size_t> load(n, 0);
            for (FileId salt = start; salt < start + (n - 1); ++salt) {
              for (const DiskId p : partners[salt]) ++load[p];
            }
            for (DiskId d = 0; d < n; ++d) {
              EXPECT_EQ(load[d], d == f ? 0 : g - 1)
                  << where << " window " << start << " disk " << d;
            }
          }
        }
      }
    }
  }
}

// The closed-form partner functions the partner walk replaced, kept as the
// oracle: partner j ∈ [0, g−1) of `failed` for stripe `salt`.
DiskId raid5_partner_oracle(std::size_t g, DiskId failed, std::size_t j) {
  // The j-th member of failed's group, skipping failed itself.
  const std::size_t member = (failed / g) * g + j;
  return static_cast<DiskId>(member >= failed ? member + 1 : member);
}

DiskId declustered_partner_oracle(std::size_t n, DiskId failed,
                                  std::uint64_t salt, std::size_t j) {
  // 64-bit arithmetic: salt + j wraps past 2^64 for the top salts.
  const std::size_t offset = 1 + ((salt + j) % (n - 1));
  return static_cast<DiskId>((failed + offset) % n);
}

// Every n ≤ 16, every valid group, every failed disk and the salts where a
// walk could slip — the ring's start and end, an arbitrary salt and the
// top g salts, where salt + j wraps — must name exactly the partners the
// closed form names, in order, through both rebuild_sources (64-bit salts)
// and degraded_read (file-id salts).
TEST(ParityLayout, PartnerWalkMatchesClosedForm) {
  constexpr Bytes kBytes = 512;
  constexpr std::uint64_t kMax = std::numeric_limits<std::uint64_t>::max();
  for (std::size_t n = 2; n <= 16; ++n) {
    SimConfig sc;
    sc.disk_params = two_speed_cheetah();
    sc.disk_count = n;
    const FileSet files = two_files();
    ArrayContext ctx(sc, files);
    for (std::size_t g = 2; g <= n; ++g) {
      std::vector<std::uint64_t> salts{0, 1, n - 2, n - 1, 12345};
      for (std::uint64_t k = 0; k < g; ++k) salts.push_back(kMax - k);
      std::vector<std::unique_ptr<ParityScheme>> layouts;
      if (n % g == 0) layouts.push_back(std::make_unique<Raid5Scheme>(n, g));
      layouts.push_back(std::make_unique<DeclusteredScheme>(n, g));
      for (const auto& layout : layouts) {
        const bool raid5 = layout->name() == "raid5";
        for (DiskId f = 0; f < n; ++f) {
          FaultState one;
          one.resize(n);
          fail(one, f);
          for (const std::uint64_t salt : salts) {
            const std::string where =
                layout->name() + " n=" + std::to_string(n) + " g=" +
                std::to_string(g) + " failed=" + std::to_string(f) +
                " salt=" + std::to_string(salt);
            std::vector<DiskId> want;
            for (std::size_t j = 0; j + 1 < g; ++j) {
              want.push_back(raid5 ? raid5_partner_oracle(g, f, j)
                                   : declustered_partner_oracle(n, f, salt, j));
            }
            std::vector<DiskId> sources;
            layout->rebuild_sources(one, f, salt, sources);
            EXPECT_EQ(sources, want) << where;
            if (salt > std::numeric_limits<FileId>::max()) continue;
            std::vector<StripeChunk> serves;
            ASSERT_TRUE(layout->degraded_read(ctx, one,
                                              static_cast<FileId>(salt),
                                              kBytes, f, serves))
                << where;
            EXPECT_EQ(disks_of(serves), want) << where;
          }
        }
      }
    }
  }
}

// --------------------------------------------------------- RebuildScheduler

TEST(RebuildScheduler, PacesStepsAndCompletes) {
  RebuildScheduler s;
  s.configure(1.0, 1 * kMiB);  // period = 1048576 / 1e6 s per step
  const double period = static_cast<double>(1 * kMiB) / 1e6;
  EXPECT_FALSE(s.active());
  EXPECT_EQ(s.next_time(), kNeverTime);

  s.start(0, Seconds{10.0}, 2 * kMiB + 512 * kKiB);
  EXPECT_TRUE(s.active());
  EXPECT_TRUE(s.rebuilding(0));
  EXPECT_FALSE(s.rebuilding(1));
  EXPECT_DOUBLE_EQ(s.next_time().value(), 10.0 + period);
  // Starting again while in flight is a no-op.
  s.start(0, Seconds{11.0}, 99 * kMiB);
  EXPECT_DOUBLE_EQ(s.next_time().value(), 10.0 + period);

  RebuildScheduler::Step step;
  EXPECT_FALSE(s.pop_due(Seconds{10.0}, step));  // nothing due yet

  ASSERT_TRUE(s.pop_due(Seconds{10.0 + period}, step));
  EXPECT_EQ(step.disk, 0u);
  EXPECT_EQ(step.bytes, 1 * kMiB);
  EXPECT_EQ(step.index, 0u);
  EXPECT_FALSE(step.completes);

  ASSERT_TRUE(s.pop_due(Seconds{100.0}, step));
  EXPECT_EQ(step.index, 1u);
  EXPECT_FALSE(step.completes);

  ASSERT_TRUE(s.pop_due(Seconds{100.0}, step));  // short final step
  EXPECT_EQ(step.bytes, 512 * kKiB);
  EXPECT_TRUE(step.completes);
  EXPECT_EQ(step.done, step.total);
  EXPECT_DOUBLE_EQ(step.started.value(), 10.0);
  EXPECT_FALSE(s.active());
  EXPECT_FALSE(s.abort(0));  // already finished
}

TEST(RebuildScheduler, ZeroByteRebuildCompletesImmediately) {
  RebuildScheduler s;
  s.configure(32.0, 4 * kMiB);
  s.start(2, Seconds{5.0}, 0);
  EXPECT_DOUBLE_EQ(s.next_time().value(), 5.0);
  RebuildScheduler::Step step;
  ASSERT_TRUE(s.pop_due(Seconds{5.0}, step));
  EXPECT_EQ(step.disk, 2u);
  EXPECT_EQ(step.bytes, 0u);
  EXPECT_TRUE(step.completes);
  EXPECT_FALSE(s.active());
}

TEST(RebuildScheduler, AbortDropsInFlightRebuilds) {
  RebuildScheduler s;
  s.configure(32.0, 4 * kMiB);
  s.start(1, Seconds{0.0}, 8 * kMiB);
  EXPECT_TRUE(s.abort(1));
  EXPECT_FALSE(s.active());
  EXPECT_FALSE(s.abort(1));
}

// ------------------------------------------------------------ simulator seam

TEST(RedundancySim, Raid5ReconstructsInsteadOfLosing) {
  // One failure, parity over the whole 4-disk array: every request routed
  // at the dead disk is served by reads on the 3 survivors — zero lost.
  ProbePolicy policy;
  const auto files = two_files();
  const auto trace = trace_of({{0.0, 0}, {10.0, 0}, {30.0, 0}});
  const FaultPlan plan =
      FaultPlan::from_events({{Seconds{5.0}, 0, FaultKind::kFail}});

  RebuildRecorder obs;
  const auto result =
      run_simulation(config(4, RedundancyKind::kRaid5, 0, /*rebuild=*/false),
                     files, trace, policy, &obs, &plan);

  EXPECT_EQ(result.counters.at("sim.requests_lost"), 0u);
  EXPECT_EQ(result.counters.at("sim.requests_reconstructed"), 2u);
  EXPECT_EQ(result.counters.at("redundancy.data_loss_events"), 0u);
  EXPECT_EQ(result.user_requests, 3u);  // every request completed

  ASSERT_EQ(obs.degraded.size(), 2u);
  for (const auto& d : obs.degraded) {
    EXPECT_EQ(d.outcome, DegradedOutcome::kReconstructed);
    EXPECT_EQ(d.intended, 0u);
  }
  ASSERT_EQ(obs.reconstructs.size(), 2u);
  EXPECT_DOUBLE_EQ(obs.reconstructs[0].time.value(), 10.0);
  EXPECT_EQ(obs.reconstructs[0].failed, 0u);
  EXPECT_EQ(obs.reconstructs[0].sources, 3u);  // g - 1 survivors
  EXPECT_EQ(obs.reconstructs[0].bytes, 1 * kMiB);
  // Reconstructed completions fan over the survivors.
  ASSERT_EQ(obs.completions.size(), 3u);
  EXPECT_EQ(obs.completions.back().stripe_chunks, 3u);
}

TEST(RedundancySim, SecondGroupFailureLosesDataAndRequests) {
  ProbePolicy policy;
  const auto files = two_files();
  const auto trace = trace_of({{0.0, 0}, {10.0, 0}});
  // Groups of 2 on 4 disks: disks {0,1} share a group; killing both is a
  // data-loss event and leaves file 0 unservable.
  const FaultPlan plan = FaultPlan::from_events({
      {Seconds{2.0}, 0, FaultKind::kFail},
      {Seconds{3.0}, 1, FaultKind::kFail},
  });

  RebuildRecorder obs;
  const auto result =
      run_simulation(config(4, RedundancyKind::kRaid5, 2, /*rebuild=*/false),
                     files, trace, policy, &obs, &plan);

  EXPECT_EQ(result.counters.at("redundancy.data_loss_events"), 1u);
  EXPECT_EQ(result.counters.at("sim.requests_lost"), 1u);
  EXPECT_EQ(result.counters.at("sim.requests_reconstructed"), 0u);
  ASSERT_EQ(obs.degraded.size(), 1u);
  EXPECT_EQ(obs.degraded[0].outcome, DegradedOutcome::kLost);
}

TEST(RedundancySim, DeclusteredReconstructsFromRotatedPartners) {
  ProbePolicy policy;
  const auto files = two_files();
  const auto trace = trace_of({{10.0, 0}, {20.0, 0}});
  const FaultPlan plan =
      FaultPlan::from_events({{Seconds{5.0}, 0, FaultKind::kFail}});

  RebuildRecorder obs;
  const auto result = run_simulation(
      config(5, RedundancyKind::kDeclustered, 3, /*rebuild=*/false), files,
      trace, policy, &obs, &plan);

  EXPECT_EQ(result.counters.at("sim.requests_lost"), 0u);
  EXPECT_EQ(result.counters.at("sim.requests_reconstructed"), 2u);
  ASSERT_EQ(obs.reconstructs.size(), 2u);
  // group 3 => 2 surviving partner units per stripe.
  EXPECT_EQ(obs.reconstructs[0].sources, 2u);
}

TEST(RedundancySim, RebuildCompletesAndRecoversThroughFaultMachinery) {
  ProbePolicy policy;
  const auto files = two_files();
  const auto trace = trace_of({{0.0, 0}, {10.0, 0}});
  const FaultPlan plan =
      FaultPlan::from_events({{Seconds{5.0}, 0, FaultKind::kFail}});

  auto cfg = config(4, RedundancyKind::kRaid5, 0, /*rebuild=*/true);
  cfg.redundancy.rebuild_mbps = 1.0;
  cfg.redundancy.rebuild_chunk = 512 * kKiB;
  RebuildRecorder obs;
  const auto result = run_simulation(cfg, files, trace, policy, &obs, &plan);

  // File 0 (1 MiB) lives on the dead disk: two 512 KiB steps.
  EXPECT_EQ(result.counters.at("redundancy.rebuilds_started"), 1u);
  EXPECT_EQ(result.counters.at("redundancy.rebuilds_completed"), 1u);
  EXPECT_EQ(result.counters.at("redundancy.rebuild_steps"), 2u);
  EXPECT_EQ(result.counters.at("redundancy.data_loss_events"), 0u);
  EXPECT_EQ(result.counters.at("sim.fault_recoveries"), 1u);

  ASSERT_EQ(obs.starts.size(), 1u);
  EXPECT_DOUBLE_EQ(obs.starts[0].time.value(), 5.0);
  EXPECT_EQ(obs.starts[0].disk, 0u);
  EXPECT_EQ(obs.starts[0].bytes, 1 * kMiB);

  ASSERT_EQ(obs.progress.size(), 2u);
  EXPECT_EQ(obs.progress[0].done, 512 * kKiB);
  EXPECT_EQ(obs.progress[1].done, 1 * kMiB);

  const double period = static_cast<double>(512 * kKiB) / 1e6;
  ASSERT_EQ(obs.completes.size(), 1u);
  EXPECT_DOUBLE_EQ(obs.completes[0].time.value(), 5.0 + 2 * period);
  EXPECT_DOUBLE_EQ(obs.completes[0].duration.value(), 2 * period);

  // The rebuilt disk returns through the normal fault machinery, so its
  // measured downtime IS the repair time (MTTR as an output).
  ASSERT_EQ(obs.recovers.size(), 1u);
  EXPECT_EQ(obs.recovers[0].disk, 0u);
  EXPECT_DOUBLE_EQ(obs.recovers[0].time.value(),
                   obs.completes[0].time.value());
  EXPECT_DOUBLE_EQ(obs.recovers[0].downtime.value(), 2 * period);
}

TEST(RedundancySim, RebuildWakesSpunDownDisksAndPaysEnergy) {
  // MAID spins data disks down; a rebuild that needs them must wake them
  // (TransitionCause::kRebuild) and the energy shows in the ledger via
  // RebuildProgressEvent::energy — the conservation identity still holds.
  auto wc = worldcup98_light_config(42);
  wc.file_count = 200;
  wc.request_count = 20'000;  // horizon ~1170 s at the 58.4 ms mean gap
  const auto w = generate_workload(wc);
  const FaultPlan plan =
      FaultPlan::from_events({{Seconds{600.0}, 5, FaultKind::kFail}});

  SystemConfig cfg;
  cfg.sim.disk_count = 6;
  cfg.sim.epoch = Seconds{600.0};
  cfg.sim.redundancy.kind = RedundancyKind::kRaid5;
  cfg.sim.redundancy.rebuild_mbps = 8.0;

  RebuildRecorder obs;
  const auto report = SimulationSession(cfg)
                          .with_workload(w)
                          .with_policy("maid")
                          .with_observer(obs)
                          .with_faults(plan)
                          .run();

  ASSERT_FALSE(obs.progress.empty());
  double rebuild_energy = 0.0;
  for (const auto& p : obs.progress) rebuild_energy += p.energy.value();
  EXPECT_GT(rebuild_energy, 0.0);

  // Conservation: requests + non-serve non-rebuild transitions +
  // migrations + copies + rebuild steps + final idle == total.
  double sum = obs.run_end.final_idle_energy.value() + rebuild_energy;
  for (const auto& e : obs.completions) sum += e.energy.value();
  for (const auto& e : obs.transitions) {
    if (e.cause != TransitionCause::kSpinUpToServe &&
        e.cause != TransitionCause::kRebuild) {
      sum += e.energy.value();
    }
  }
  for (const auto& e : obs.migrations) sum += e.energy.value();
  for (const auto& e : obs.copies) sum += e.energy.value();
  const double total = obs.run_end.total_energy.value();
  EXPECT_NEAR(sum, total, 1e-6 * total);
  EXPECT_DOUBLE_EQ(report.sim.energy_joules(), total);

  // The wake-ups themselves are visible and counted.
  bool saw_rebuild_wake = false;
  for (const auto& e : obs.transitions) {
    if (e.cause == TransitionCause::kRebuild) saw_rebuild_wake = true;
  }
  EXPECT_EQ(saw_rebuild_wake,
            report.sim.counters.at("redundancy.rebuild_wakeups") > 0);
}

// ----------------------------------------------------- determinism contracts

TEST(RedundancySim, FaultFreeParityConfigIsByteIdenticalToNone) {
  auto wc = worldcup98_light_config(7);
  wc.file_count = 100;
  wc.request_count = 2'500;
  const auto w = generate_workload(wc);

  const auto run_once = [&](RedundancyKind kind) {
    ProbePolicy policy;
    auto cfg = config(4, kind);
    cfg.epoch = Seconds{600.0};
    std::ostringstream out;
    JsonlTraceWriter writer(out);
    auto result =
        run_simulation(cfg, w.files, w.trace, policy, &writer, nullptr);
    return std::pair{out.str(), std::move(result)};
  };

  const auto [none_text, none] = run_once(RedundancyKind::kNone);
  const auto [raid_text, raid] = run_once(RedundancyKind::kRaid5);
  EXPECT_FALSE(none_text.empty());
  EXPECT_EQ(none_text, raid_text);
  EXPECT_EQ(none.counters, raid.counters);  // no redundancy counters appear
  EXPECT_EQ(none.counters.count("sim.requests_reconstructed"), 0u);
  EXPECT_DOUBLE_EQ(none.energy_joules(), raid.energy_joules());
}

TEST(RedundancySim, FaultedParityRunsAreDeterministic) {
  auto wc = worldcup98_light_config(5);
  wc.file_count = 100;
  wc.request_count = 2'500;
  const auto w = generate_workload(wc);

  FaultHazard hazard;
  hazard.seed = 3;
  hazard.afr = 400'000.0;
  hazard.mttr = Seconds{60.0};
  hazard.horizon = w.trace.requests.back().arrival;
  const FaultPlan plan = FaultPlan::from_hazard(hazard, 4);
  ASSERT_FALSE(plan.empty());

  const auto run_once = [&](RedundancyKind kind) {
    SystemConfig cfg;
    cfg.sim.disk_count = 4;
    cfg.sim.epoch = Seconds{600.0};
    cfg.sim.redundancy.kind = kind;
    cfg.sim.redundancy.rebuild_mbps = 4.0;
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

  for (const RedundancyKind kind :
       {RedundancyKind::kRaid5, RedundancyKind::kDeclustered}) {
    const std::string first = run_once(kind);
    EXPECT_FALSE(first.empty());
    EXPECT_NE(first.find("\"ev\":\"stripe_reconstruct\""), std::string::npos);
    EXPECT_NE(first.find("\"ev\":\"rebuild_start\""), std::string::npos);
    EXPECT_EQ(run_once(kind), first);
  }
}

// ------------------------------------------------------------ MTTDL closure

TEST(MttdlAgreement, ScoresObservedAgainstClosedForm) {
  MttdlInputs inputs;
  inputs.disk_afr = 0.5;
  inputs.disks = 4;
  inputs.mttr = Seconds{24.0 * 3600.0};
  const double hours = mttdl_hours(RaidLevel::kRaid5, inputs);

  // 3 losses over 2 domains x half a year = 3 per domain-year.
  const MttdlAgreement a = score_mttdl_agreement(
      RaidLevel::kRaid5, inputs, 3, 2,
      Seconds{0.5 * kSecondsPerYear.value()});
  EXPECT_DOUBLE_EQ(a.predicted_mttdl_hours, hours);
  EXPECT_DOUBLE_EQ(a.predicted_losses_per_year, 8760.0 / hours);
  EXPECT_DOUBLE_EQ(a.observed_losses_per_year, 3.0);
  EXPECT_DOUBLE_EQ(a.observed_over_predicted, 3.0 / (8760.0 / hours));
}

TEST(MttdlAgreement, DegenerateInputsScoreZeroInsteadOfThrowing) {
  MttdlInputs inputs;  // afr > 0 but...
  inputs.disk_afr = 0.0;  // ...zero rate is degenerate for the closed form
  const MttdlAgreement a = score_mttdl_agreement(
      RaidLevel::kRaid5, inputs, 5, 1, Seconds{kSecondsPerYear.value()});
  EXPECT_DOUBLE_EQ(a.predicted_mttdl_hours, 0.0);
  EXPECT_DOUBLE_EQ(a.predicted_losses_per_year, 0.0);
  EXPECT_DOUBLE_EQ(a.observed_losses_per_year, 0.0);
  EXPECT_DOUBLE_EQ(a.observed_over_predicted, 0.0);
}

// ------------------------------------------------- DegradationAnalyzer split

TEST(DegradationAnalyzer, TracksPerDiskCountsReconstructionsAndRebuilds) {
  DegradationAnalyzer a;
  RunStartEvent start;
  start.disk_count = 3;
  a.on_run_start(start);

  a.on_request_degraded(
      {Seconds{1.0}, 0, 0, 1, DegradedOutcome::kReconstructed, 1.0});
  a.on_request_degraded(
      {Seconds{2.0}, 1, 0, 1, DegradedOutcome::kReconstructed, 1.0});
  a.on_request_degraded({Seconds{3.0}, 2, 2, 2, DegradedOutcome::kLost, 1.0});

  RebuildStartEvent rs;
  rs.disk = 0;
  a.on_rebuild_start(rs);
  RebuildCompleteEvent rc;
  rc.disk = 0;
  rc.bytes = 4 * kMiB;
  rc.duration = Seconds{30.0};
  a.on_rebuild_complete(rc);

  EXPECT_EQ(a.reconstructed_requests(), 2u);
  EXPECT_EQ(a.lost_requests(), 1u);
  ASSERT_EQ(a.degraded_by_disk().size(), 3u);
  EXPECT_EQ(a.degraded_by_disk()[0], 2u);  // keyed by intended disk
  EXPECT_EQ(a.degraded_by_disk()[1], 0u);
  EXPECT_EQ(a.degraded_by_disk()[2], 1u);
  EXPECT_EQ(a.rebuilds_started(), 1u);
  EXPECT_EQ(a.rebuilds_completed(), 1u);
  EXPECT_EQ(a.rebuilt_bytes(), 4 * kMiB);
  EXPECT_DOUBLE_EQ(a.mean_rebuild_time().value(), 30.0);
  EXPECT_DOUBLE_EQ(a.max_rebuild_time().value(), 30.0);

  SimResult result;
  a.merge_into(result);
  EXPECT_EQ(result.counters.at("fault.disk0.degraded_requests"), 2u);
  EXPECT_EQ(result.counters.count("fault.disk1.degraded_requests"), 0u);
  EXPECT_EQ(result.counters.at("fault.disk2.degraded_requests"), 1u);
  EXPECT_EQ(result.counters.at("redundancy.mean_rebuild_ms"), 30'000u);
  EXPECT_EQ(result.counters.at("redundancy.max_rebuild_ms"), 30'000u);
}

// ------------------------------------------------------------ scenario layer

TEST(RedundancyScenario, ParsesRedundancyAndKillSections) {
  const auto spec = parse_scenario(R"(
[scenario]
name = rebuild_check
[system]
disks = 6
[policy read]
[fault]
afr = 0.2
rate_scale = 0
kill_disk = 0,3
kill_at = 100,200
[redundancy]
scheme = declustered
group = 3
rebuild_mbps = 64
rebuild_chunk = 1048576
)");
  EXPECT_TRUE(spec.fault.enabled);
  ASSERT_EQ(spec.fault.kill_disks.size(), 2u);
  EXPECT_EQ(spec.fault.kill_disks[1], 3u);
  EXPECT_DOUBLE_EQ(spec.fault.kill_at_s[1], 200.0);
  EXPECT_TRUE(spec.redundancy.enabled);
  EXPECT_EQ(spec.redundancy.scheme, "declustered");
  EXPECT_EQ(spec.redundancy.group, 3u);
  EXPECT_TRUE(spec.redundancy.rebuild);
  EXPECT_DOUBLE_EQ(spec.redundancy.rebuild_mbps, 64.0);
  EXPECT_EQ(spec.redundancy.rebuild_chunk, 1'048'576u);
  EXPECT_EQ(scenario_redundancy_kind(spec.redundancy),
            RedundancyKind::kDeclustered);
}

TEST(RedundancyScenario, ValidationRejectsBadSpecs) {
  const auto base = [](const std::string& extra) {
    return "[scenario]\nname = t\n[system]\ndisks = 8\n[policy read]\n" +
           extra;
  };
  // Unknown scheme name.
  EXPECT_THROW((void)parse_scenario(base("[redundancy]\nscheme = raid9\n")),
               std::invalid_argument);
  // RAID-5 group must divide the array.
  EXPECT_THROW(
      (void)parse_scenario(base("[redundancy]\nscheme = raid5\ngroup = 3\n")),
      std::invalid_argument);
  // kill lists must pair up.
  EXPECT_THROW((void)parse_scenario(
                   base("[fault]\nkill_disk = 0,1\nkill_at = 5\n")),
               std::invalid_argument);
  // kill targets must exist on every disks-axis value.
  EXPECT_THROW((void)parse_scenario(
                   base("[fault]\nkill_disk = 8\nkill_at = 5\n")),
               std::invalid_argument);
}

TEST(RedundancyScenario, KilledDiskRebuildsWithZeroLossEndToEnd) {
  ScenarioSpec spec;
  spec.name = "rebuild_smoke";
  spec.threads = 1;
  spec.disks = {4};
  spec.epochs = {600.0};
  ScenarioWorkload w;
  w.files = 80;
  w.requests = 4'000;
  spec.workloads.push_back(w);
  spec.policies.push_back({"read", "READ", {}});
  spec.fault.enabled = true;
  spec.fault.rate_scales = {0.0};  // scripted kill only — no hazard draw
  spec.fault.kill_disks = {0};
  // Mid-run (horizon ~234 s); the slow rebuild rate keeps the disk down
  // for a whole step period, so degraded reads actually happen.
  spec.fault.kill_at_s = {60.0};
  spec.redundancy.enabled = true;
  spec.redundancy.scheme = "raid5";
  spec.redundancy.rebuild_mbps = 0.2;

  const ScenarioResult result = run_scenario(spec);
  EXPECT_TRUE(result.redundant);
  ASSERT_EQ(result.cells.size(), 1u);
  const ScenarioCell& cell = result.cells[0];
  ASSERT_TRUE(cell.fault.has_value());
  ASSERT_TRUE(cell.redundancy.has_value());
  // Parity absorbed the failure: nothing lost, reads reconstructed, the
  // rebuild ran to completion, no data-loss event.
  EXPECT_EQ(cell.fault->lost_requests, 0u);
  EXPECT_GT(cell.redundancy->reconstructed_requests, 0u);
  EXPECT_EQ(cell.redundancy->data_loss_events, 0u);
  EXPECT_EQ(cell.redundancy->rebuilds_started, 1u);
  EXPECT_EQ(cell.redundancy->rebuilds_completed, 1u);
  EXPECT_GT(cell.redundancy->mean_rebuild_s, 0.0);

  // The CSV widens with the redundancy columns, append-only.
  std::ostringstream out;
  write_scenario_csv(result, out);
  const std::string csv = out.str();
  const std::string header = scenario_csv_header(true, true);
  EXPECT_EQ(csv.substr(0, header.size()), header);
  EXPECT_NE(csv.find(",raid5,"), std::string::npos);
}

TEST(RedundancyScenario, FleetCellsByteIdenticalAcrossThreadCounts) {
  ScenarioSpec spec;
  spec.name = "fleet_redundancy";
  spec.threads = 1;
  spec.disks = {4};
  spec.epochs = {600.0};
  ScenarioWorkload w;
  w.files = 60;
  w.requests = 2'000;
  spec.workloads.push_back(w);
  spec.policies.push_back({"read", "READ", {}});
  spec.fault.enabled = true;
  spec.fault.afr = 0.3;
  spec.fault.rate_scales = {0.0};
  spec.fault.kill_disks = {1};
  spec.fault.kill_at_s = {60.0};
  spec.redundancy.enabled = true;
  spec.redundancy.scheme = "declustered";
  spec.redundancy.group = 3;
  spec.redundancy.rebuild_mbps = 8.0;
  spec.fleet.enabled = true;
  spec.fleet.shards = 3;

  const auto run_with = [&](unsigned threads) {
    ScenarioSpec s = spec;
    s.fleet.threads = threads;
    std::ostringstream out;
    write_scenario_csv(run_scenario(s), out);
    return out.str();
  };

  const std::string serial = run_with(1);
  const std::string parallel = run_with(4);
  EXPECT_FALSE(serial.empty());
  EXPECT_EQ(serial, parallel);
  // Every shard saw the scripted kill and rebuilt it.
  EXPECT_NE(serial.find("declustered"), std::string::npos);
}

}  // namespace
}  // namespace pr
