// Isolated tests of the simulator's one dispatch planner: serve a single
// request and assert on which disks booked work (ledger.requests for user
// reads, internal_ops for background I/O). Every policy goes through the
// same plan-then-book path — a non-striped route() is a one-chunk stripe —
// so these pin the routing, redirect, loss and reconstruction outcomes
// independently of any workload.
#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "policy/maid_policy.h"
#include "policy/static_policy.h"
#include "policy/striping.h"
#include "sim/array_sim.h"

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
        Request{Seconds{time}, file, files.by_id(file).size});
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
