// Tests of the request planner. The PlanRequest.* cases call plan_request
// directly on a bare ArrayContext plus FaultState — no simulation runs —
// and assert the plan's values: which disks are read, exactly once, with
// which byte counts, and that no other disk is touched. The Planner.*
// cases serve a single request through run_simulation and assert on which
// disks booked work (ledger.requests for user reads, internal_ops for
// background I/O): every policy goes through the same plan-then-book path
// — a non-striped route() is a one-chunk stripe — so these pin the
// routing, redirect, loss and reconstruction outcomes independently of any
// workload.
#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "policy/maid_policy.h"
#include "policy/static_policy.h"
#include "policy/striping.h"
#include "redundancy/scheme.h"
#include "sim/array_sim.h"
#include "sim/planner.h"

namespace pr {
namespace {

FileSet files_of(std::initializer_list<Bytes> sizes) {
  std::vector<FileInfo> files;
  for (const Bytes size : sizes) {
    files.push_back({static_cast<FileId>(files.size()), size, 1.0});
  }
  return FileSet(std::move(files));
}

Trace trace_of(const FileSet& files,
               std::initializer_list<std::pair<double, FileId>> arrivals) {
  Trace t;
  for (const auto& [time, file] : arrivals) {
    t.requests.push_back(
        Request{.arrival = Seconds{time},
                .file = file,
                .size = files.by_id(file).size});
  }
  return t;
}

SimConfig config(std::size_t disks) {
  SimConfig c;
  c.disk_params = two_speed_cheetah();
  c.disk_count = disks;
  return c;
}

FaultPlan kill(DiskId disk, double at) {
  return FaultPlan::from_events(
      {FaultEvent{Seconds{at}, disk, FaultKind::kFail, 1.0}});
}

std::uint64_t counter(const SimResult& r, const std::string& name) {
  const auto it = r.counters.find(name);
  return it == r.counters.end() ? 0 : it->second;
}

class CompleteRecorder final : public SimObserver {
 public:
  void on_request_complete(const RequestCompleteEvent& e) override {
    events.push_back(e);
  }
  std::vector<RequestCompleteEvent> events;
};

/// Delegates to a wrapped policy and records what route() chose and which
/// disk after_serve() was handed.
class DispatchProbe final : public Policy {
 public:
  explicit DispatchProbe(Policy& inner) : inner_(inner) {}
  [[nodiscard]] std::string name() const override { return inner_.name(); }
  void initialize(ArrayContext& ctx) override { inner_.initialize(ctx); }
  DiskId route(ArrayContext& ctx, const Request& req) override {
    routed.push_back(inner_.route(ctx, req));
    return routed.back();
  }
  void after_serve(ArrayContext& ctx, const Request& req, DiskId d) override {
    served.push_back(d);
    inner_.after_serve(ctx, req, d);
  }
  [[nodiscard]] RedundancyScheme* redundancy() override {
    return inner_.redundancy();
  }

  std::vector<DiskId> routed;
  std::vector<DiskId> served;

 private:
  Policy& inner_;
};

// ------------------------------------------------ plan_request, directly

/// Answers every degraded read with a fixed list of disks, each carrying
/// the chunk's bytes; parity() decides redirected vs reconstructed.
class ScriptedScheme final : public RedundancyScheme {
 public:
  ScriptedScheme(std::vector<DiskId> answer, bool parity)
      : answer_(std::move(answer)), parity_(parity) {}
  [[nodiscard]] std::string name() const override { return "scripted"; }
  [[nodiscard]] bool degraded_read(ArrayContext&, const FaultState&, FileId,
                                   Bytes bytes, DiskId,
                                   std::vector<StripeChunk>& serves) override {
    for (const DiskId d : answer_) serves.push_back(StripeChunk{d, bytes});
    return true;
  }
  [[nodiscard]] bool parity() const override { return parity_; }

 private:
  std::vector<DiskId> answer_;
  bool parity_;
};

/// A bare array of `disks` disks and its fault flags, with `failed` down.
struct Bench {
  Bench(std::size_t disks, std::initializer_list<DiskId> failed)
      : sc(config(disks)), files(files_of({256 * kKiB})), ctx(sc, files) {
    faults.resize(disks);
    for (const DiskId d : failed) {
      faults.apply(FaultEvent{Seconds{0.0}, d, FaultKind::kFail, 1.0});
    }
  }
  RequestPlan plan(RedundancyScheme* scheme,
                   std::vector<StripeChunk> chunks) {
    RequestPlan p;
    const Request req{.arrival = Seconds{1.0}, .file = 0, .size = 256 * kKiB};
    plan_request(ctx, faults, scheme, req, std::move(chunks), p);
    return p;
  }

  SimConfig sc;
  FileSet files;
  ArrayContext ctx;
  FaultState faults;
};

using Reads = std::vector<std::pair<DiskId, Bytes>>;

/// A plan's serves as (disk, bytes) pairs, in serve order.
Reads reads(const std::vector<StripeChunk>& serves) {
  Reads out;
  for (const StripeChunk& c : serves) out.emplace_back(c.disk, c.bytes);
  return out;
}

TEST(PlanRequest, FaultFreeOneChunkPlanIsTheChunk) {
  Bench bench(4, {});
  const RequestPlan p = bench.plan(nullptr, {{2, 64 * kKiB}});
  EXPECT_FALSE(p.lost);
  EXPECT_EQ(p.primary, 2u);
  EXPECT_EQ(reads(p.serves), (Reads{{2, 64 * kKiB}}));
  EXPECT_TRUE(p.degraded.empty());
}

TEST(PlanRequest, RedirectedFirstChunkMakesTheLiveCopyPrimary) {
  Bench bench(4, {1});
  ScriptedScheme copy({3}, /*parity=*/false);
  const RequestPlan p = bench.plan(&copy, {{1, 64 * kKiB}, {2, 32 * kKiB}});
  EXPECT_FALSE(p.lost);
  EXPECT_EQ(p.primary, 3u);
  EXPECT_EQ(reads(p.serves), (Reads{{3, 64 * kKiB}, {2, 32 * kKiB}}));
  ASSERT_EQ(p.degraded.size(), 1u);
  EXPECT_EQ(p.degraded[0].outcome, DegradedOutcome::kRedirected);
  EXPECT_EQ(p.degraded[0].failed, 1u);
  EXPECT_EQ(p.degraded[0].served_by, 3u);
  EXPECT_EQ(p.degraded[0].sources, 0u);
  EXPECT_EQ(p.degraded[0].bytes, 64 * kKiB);
}

TEST(PlanRequest, Raid5ReconstructReadsEachGroupSurvivorOnce) {
  Bench bench(8, {2});
  Raid5Scheme raid5(8, 4);
  const RequestPlan p = bench.plan(&raid5, {{2, 48 * kKiB}});
  EXPECT_FALSE(p.lost);
  EXPECT_EQ(p.primary, 2u);  // the failed disk the survivors stand for
  // Each survivor of group {0, 1, 2, 3} exactly once, with the chunk's
  // bytes; no disk of the other group, and not the failed disk.
  EXPECT_EQ(reads(p.serves),
            (Reads{{0, 48 * kKiB}, {1, 48 * kKiB}, {3, 48 * kKiB}}));
  ASSERT_EQ(p.degraded.size(), 1u);
  EXPECT_EQ(p.degraded[0].outcome, DegradedOutcome::kReconstructed);
  EXPECT_EQ(p.degraded[0].failed, 2u);
  EXPECT_EQ(p.degraded[0].served_by, 2u);
  EXPECT_EQ(p.degraded[0].sources, 3u);
  EXPECT_EQ(p.degraded[0].bytes, 48 * kKiB);
}

TEST(PlanRequest, LostChunkLeavesNothingToBook) {
  // RAID-5 groups {0..3} and {4..7}. Chunk 1 (disk 4) reconstructs from
  // {5, 6, 7}; chunk 3 (disk 2) shares its group with failed disk 3.
  Bench bench(8, {4, 2, 3});
  Raid5Scheme raid5(8, 4);
  const RequestPlan p = bench.plan(
      &raid5, {{0, 64 * kKiB}, {4, 64 * kKiB}, {1, 64 * kKiB}, {2, 64 * kKiB}});
  EXPECT_TRUE(p.lost);
  EXPECT_EQ(p.primary, 0u);
  EXPECT_TRUE(p.serves.empty());
  EXPECT_TRUE(p.degraded.empty());
}

TEST(PlanRequest, SchemeAnswerNamingAFailedOrMissingDiskIsLost) {
  Bench bench(4, {1, 2});
  for (const bool parity : {false, true}) {
    ScriptedScheme on_failed({0, 2}, parity);
    ScriptedScheme out_of_range({0, 4}, parity);
    ScriptedScheme nothing({}, parity);
    for (RedundancyScheme* scheme :
         {static_cast<RedundancyScheme*>(&on_failed),
          static_cast<RedundancyScheme*>(&out_of_range),
          static_cast<RedundancyScheme*>(&nothing)}) {
      const RequestPlan p = bench.plan(scheme, {{1, 64 * kKiB}});
      EXPECT_TRUE(p.lost) << "parity " << parity;
      EXPECT_EQ(p.primary, 1u);
      EXPECT_TRUE(p.serves.empty());
      EXPECT_TRUE(p.degraded.empty());
    }
  }
  EXPECT_TRUE(bench.plan(nullptr, {{1, 64 * kKiB}}).lost);
}

TEST(PlanRequest, RejectsEmptyStripesAndMissingDisks) {
  Bench bench(4, {});
  EXPECT_THROW((void)bench.plan(nullptr, {}), std::logic_error);
  EXPECT_THROW((void)bench.plan(nullptr, {{4, 64 * kKiB}}), std::logic_error);
  // Validated before any degraded planning: a later bad chunk throws even
  // when an earlier one is already lost.
  Bench faulted(4, {0});
  EXPECT_THROW((void)faulted.plan(nullptr, {{0, 1}, {9, 1}}),
               std::logic_error);
}

TEST(PlanRequest, ReusedPlanIsResetBetweenRequests) {
  Bench bench(8, {2});
  Raid5Scheme raid5(8, 4);
  RequestPlan p;
  const Request req{.arrival = Seconds{1.0}, .file = 0, .size = 64 * kKiB};
  const std::vector<StripeChunk> degraded{{2, 64 * kKiB}};
  const std::vector<StripeChunk> healthy{{5, 64 * kKiB}};
  plan_request(bench.ctx, bench.faults, &raid5, req,
               std::vector<StripeChunk>(degraded), p);
  ASSERT_EQ(p.serves.size(), 3u);
  plan_request(bench.ctx, bench.faults, &raid5, req,
               std::vector<StripeChunk>(healthy), p);
  EXPECT_FALSE(p.lost);
  EXPECT_EQ(p.primary, 5u);
  EXPECT_EQ(reads(p.serves), reads(healthy));
  EXPECT_TRUE(p.degraded.empty());
}

// ------------------------------------------- one request, through the sim

TEST(Planner, NonStripedPolicyTouchesExactlyOneDisk) {
  const FileSet files = files_of({64 * kKiB, 64 * kKiB, 64 * kKiB});
  StaticPolicy inner;
  DispatchProbe policy(inner);
  CompleteRecorder recorder;
  const SimResult r = run_simulation(config(4), files,
                                     trace_of(files, {{1.0, 2}}), policy,
                                     &recorder);
  ASSERT_EQ(policy.routed.size(), 1u);
  const DiskId home = policy.routed.front();
  for (DiskId d = 0; d < 4; ++d) {
    EXPECT_EQ(r.ledgers[d].requests, d == home ? 1u : 0u) << "disk " << d;
    EXPECT_EQ(r.ledgers[d].internal_ops, 0u) << "disk " << d;
  }
  ASSERT_EQ(recorder.events.size(), 1u);
  EXPECT_EQ(recorder.events[0].disk, home);
  EXPECT_EQ(recorder.events[0].stripe_chunks, 1u);
  EXPECT_EQ(policy.served, std::vector<DiskId>{home});
}

TEST(Planner, MaidRedirectHandsTheLiveCopyToAfterServeAndTheEvent) {
  // One cache disk (disk 0). The first read misses, is served by the home
  // disk and copied onto the cache disk; the cache disk then fails, so the
  // second read — routed to the cache copy — redirects to the home copy.
  const FileSet files = files_of({64 * kKiB, 64 * kKiB});
  MaidConfig mc;
  mc.cache_disks = 1;
  MaidPolicy inner(mc);
  DispatchProbe policy(inner);
  CompleteRecorder recorder;
  const FaultPlan plan = kill(0, 2.0);
  const SimResult r = run_simulation(config(4), files,
                                     trace_of(files, {{1.0, 0}, {3.0, 0}}),
                                     policy, &recorder, &plan);
  ASSERT_EQ(policy.routed.size(), 2u);
  const DiskId home = policy.routed[0];
  EXPECT_NE(home, 0u);
  EXPECT_EQ(policy.routed[1], 0u);  // the cache copy, now failed
  EXPECT_EQ(counter(r, "sim.requests_degraded"), 1u);
  EXPECT_EQ(policy.served, (std::vector<DiskId>{home, home}));
  ASSERT_EQ(recorder.events.size(), 2u);
  EXPECT_EQ(recorder.events[1].disk, home);
  EXPECT_EQ(r.ledgers[0].requests, 0u);
  EXPECT_EQ(r.ledgers[0].internal_ops, 1u);  // the cache fill
  EXPECT_EQ(r.ledgers[home].requests, 2u);
}

TEST(Planner, Raid0FailedMemberLosesTheWholeRequest) {
  // A 4-unit stripe over four disks; one member fails before the read.
  const FileSet files = files_of({4 * 64 * kKiB});
  StripedStaticPolicy policy(StripingConfig{64 * kKiB});
  CompleteRecorder recorder;
  const FaultPlan plan = kill(2, 0.5);
  const SimResult r = run_simulation(config(4), files,
                                     trace_of(files, {{1.0, 0}}), policy,
                                     &recorder, &plan);
  EXPECT_EQ(counter(r, "sim.requests_lost"), 1u);
  EXPECT_EQ(r.user_requests, 0u);
  EXPECT_TRUE(recorder.events.empty());
  for (DiskId d = 0; d < 4; ++d) {
    EXPECT_EQ(r.ledgers[d].requests, 0u) << "disk " << d;
    EXPECT_EQ(r.ledgers[d].internal_ops, 0u) << "disk " << d;
  }
}

TEST(Planner, Raid5ReconstructReadsOnceOnEachGroupSurvivor) {
  const FileSet files = files_of({64 * kKiB, 64 * kKiB, 64 * kKiB});
  SimConfig sc = config(8);
  sc.redundancy.kind = RedundancyKind::kRaid5;
  sc.redundancy.group = 4;
  sc.redundancy.rebuild = false;
  StaticPolicy inner;
  DispatchProbe policy(inner);
  CompleteRecorder recorder;
  // Static placement is round-robin in size order: file 2 sits on disk 2,
  // inside the parity group {0, 1, 2, 3}.
  const FaultPlan plan = kill(2, 0.5);
  const SimResult r = run_simulation(sc, files, trace_of(files, {{1.0, 2}}),
                                     policy, &recorder, &plan);
  ASSERT_EQ(policy.routed, std::vector<DiskId>{2});
  EXPECT_EQ(counter(r, "sim.requests_reconstructed"), 1u);
  for (DiskId d = 0; d < 8; ++d) {
    const bool survivor = d < 4 && d != 2;
    EXPECT_EQ(r.ledgers[d].requests, survivor ? 1u : 0u) << "disk " << d;
  }
  ASSERT_EQ(recorder.events.size(), 1u);
  EXPECT_EQ(recorder.events[0].stripe_chunks, 3u);
  EXPECT_EQ(recorder.events[0].disk, 2u);  // the failed disk it stands for
  EXPECT_EQ(policy.served, std::vector<DiskId>{2});
}

}  // namespace
}  // namespace pr
