// Tests for the registry-based core API: pr::policies name round-trips,
// SimulationSession builder semantics (including instance-vs-named policy
// equivalence), and the improvement() degenerate-input guard.
#include "core/registry.h"

#include <gtest/gtest.h>

#include <limits>
#include <memory>
#include <stdexcept>

#include "core/session.h"
#include "core/system.h"
#include "obs/observer.h"
#include "policy/read_policy.h"
#include "util/stats.h"
#include "workload/synthetic.h"

namespace pr {
namespace {

SyntheticWorkload tiny_workload(std::uint64_t seed = 5) {
  auto wc = worldcup98_light_config(seed);
  wc.file_count = 100;
  wc.request_count = 2'000;
  return generate_workload(wc);
}

SystemConfig small_system() {
  SystemConfig cfg;
  cfg.sim.disk_count = 6;
  cfg.sim.epoch = Seconds{600.0};
  return cfg;
}

// ----------------------------------------------------------- PolicyRegistry

TEST(PolicyRegistry, NamesAreSortedAndContainTheStockPolicies) {
  const auto names = policies::names();
  ASSERT_FALSE(names.empty());
  EXPECT_TRUE(std::is_sorted(names.begin(), names.end()));
  for (const char* expected :
       {"drpm", "drpm-aggressive", "hibernator", "maid", "pdc", "read",
        "replicated-read", "static", "striped-read", "striped-static"}) {
    EXPECT_TRUE(policies::contains(expected)) << expected;
  }
}

TEST(PolicyRegistry, EveryRegisteredNameRoundTripsThroughASimulation) {
  const auto w = tiny_workload();
  for (const auto& name : policies::names()) {
    SCOPED_TRACE(name);
    auto factory = policies::make(name);
    auto policy = factory();
    ASSERT_NE(policy, nullptr);
    EXPECT_FALSE(policy->name().empty());

    const auto report = SimulationSession(small_system())
                            .with_workload(w)
                            .with_policy(name)
                            .run();
    EXPECT_EQ(report.sim.user_requests, w.trace.requests.size());
    EXPECT_GT(report.sim.energy_joules(), 0.0);
    EXPECT_GT(report.array_afr, 0.0);
  }
}

TEST(PolicyRegistry, LookupIsCaseInsensitive) {
  EXPECT_TRUE(policies::contains("READ"));
  EXPECT_TRUE(policies::contains("Read"));
  const auto upper = policies::make("STATIC")();
  const auto lower = policies::make("static")();
  EXPECT_EQ(upper->name(), lower->name());
}

TEST(PolicyRegistry, UnknownNameThrowsAndListsCandidates) {
  EXPECT_FALSE(policies::contains("no-such-policy"));
  try {
    (void)policies::make("no-such-policy");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("no-such-policy"), std::string::npos);
    EXPECT_NE(what.find("read"), std::string::npos);  // lists valid names
  }
}

// -------------------------------------------------------- SimulationSession

TEST(SimulationSession, InstancePolicyMatchesRegistryNamedPolicyExactly) {
  // The removed evaluate() wrapper was pinned equivalent to a session run;
  // the invariant it guarded lives on as instance-vs-named equivalence:
  // handing the session a concrete Policy object must score identically to
  // naming the same policy through the registry.
  const auto w = tiny_workload();
  const auto cfg = small_system();

  ReadPolicy instance;
  const auto via_instance = SimulationSession(cfg)
                                .with_workload(w.files, w.trace)
                                .with_policy(instance)
                                .run();

  const auto via_name = SimulationSession(cfg)
                            .with_workload(w.files, w.trace)
                            .with_policy("read")
                            .run();

  EXPECT_EQ(via_instance.sim.policy_name, via_name.sim.policy_name);
  EXPECT_DOUBLE_EQ(via_instance.sim.mean_response_time_s(),
                   via_name.sim.mean_response_time_s());
  EXPECT_DOUBLE_EQ(via_instance.sim.energy_joules(),
                   via_name.sim.energy_joules());
  EXPECT_DOUBLE_EQ(via_instance.array_afr, via_name.array_afr);
  EXPECT_EQ(via_instance.worst_disk, via_name.worst_disk);
}

TEST(SimulationSession, NamedPolicyRunsAreRepeatable) {
  const auto w = tiny_workload();
  SimulationSession session(small_system());
  session.with_workload(w).with_policy("maid");
  const auto first = session.run();
  const auto second = session.run();  // fresh policy instance per run
  EXPECT_DOUBLE_EQ(first.sim.energy_joules(), second.sim.energy_joules());
  EXPECT_DOUBLE_EQ(first.sim.mean_response_time_s(),
                   second.sim.mean_response_time_s());
  EXPECT_EQ(first.sim.counters, second.sim.counters);
}

TEST(SimulationSession, ConvenienceKnobsEditTheConfig) {
  SimulationSession session;
  session.with_disks(12).with_epoch(Seconds{42.0});
  EXPECT_EQ(session.config().sim.disk_count, 12u);
  EXPECT_DOUBLE_EQ(session.config().sim.epoch.value(), 42.0);
}

TEST(SimulationSession, ThrowsWithoutWorkloadOrPolicy) {
  const auto w = tiny_workload();
  {
    SimulationSession session(small_system());
    session.with_policy("read");
    EXPECT_THROW((void)session.run(), std::logic_error);  // no workload
  }
  {
    SimulationSession session(small_system());
    session.with_workload(w);
    EXPECT_THROW((void)session.run(), std::logic_error);  // no policy
  }
  {
    SimulationSession session(small_system());
    EXPECT_THROW(session.with_policy(std::unique_ptr<Policy>{}),
                 std::invalid_argument);
  }
}

TEST(SimulationSession, MultipleObserversAllReceiveTheRun) {
  class CountingObserver : public SimObserver {
   public:
    void on_run_start(const RunStartEvent&) override { ++run_starts; }
    void on_request_complete(const RequestCompleteEvent&) override {
      ++requests;
    }
    void on_run_end(const RunEndEvent&) override { ++run_ends; }
    int run_starts = 0;
    int requests = 0;
    int run_ends = 0;
  };

  const auto w = tiny_workload();
  CountingObserver a;
  CountingObserver b;
  const auto report = SimulationSession(small_system())
                          .with_workload(w)
                          .with_policy("static")
                          .with_observer(a)
                          .with_observer(b)
                          .run();
  for (const CountingObserver* obs : {&a, &b}) {
    EXPECT_EQ(obs->run_starts, 1);
    EXPECT_EQ(obs->run_ends, 1);
    EXPECT_EQ(static_cast<std::size_t>(obs->requests),
              report.sim.user_requests);
  }
}

// ------------------------------------------------------------- improvement

TEST(Improvement, RelativeGainForLowerIsBetterMetrics) {
  EXPECT_DOUBLE_EQ(improvement(5.0, 10.0), 0.5);
  EXPECT_DOUBLE_EQ(improvement(10.0, 5.0), -1.0);
  EXPECT_DOUBLE_EQ(improvement(10.0, 10.0), 0.0);
}

TEST(Improvement, DegenerateInputsReturnZeroInsteadOfNanOrInf) {
  constexpr double nan = std::numeric_limits<double>::quiet_NaN();
  constexpr double inf = std::numeric_limits<double>::infinity();
  EXPECT_DOUBLE_EQ(improvement(1.0, 0.0), 0.0);
  EXPECT_DOUBLE_EQ(improvement(0.0, 0.0), 0.0);
  EXPECT_DOUBLE_EQ(improvement(nan, 10.0), 0.0);
  EXPECT_DOUBLE_EQ(improvement(1.0, nan), 0.0);
  EXPECT_DOUBLE_EQ(improvement(inf, 10.0), 0.0);
  EXPECT_DOUBLE_EQ(improvement(1.0, inf), 0.0);
  EXPECT_DOUBLE_EQ(improvement(1.0, -inf), 0.0);
}

}  // namespace
}  // namespace pr
