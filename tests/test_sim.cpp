// Tests for the discrete-event array simulator: event ordering, DPM
// mechanics, epochs, migrations and ledger consistency.
#include "sim/array_sim.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "policy/static_policy.h"
#include "sim/idle_timer.h"
#include "util/rng.h"

namespace pr {
namespace {

// --------------------------------------------------------------- IdleTimerHeap

TEST(IdleTimerHeap, PopsInDeadlineOrder) {
  IdleTimerHeap h;
  h.resize(4);
  EXPECT_TRUE(h.empty());
  h.arm(2, Seconds{3.0}, 0);
  h.arm(0, Seconds{1.0}, 1);
  h.arm(3, Seconds{2.0}, 2);
  EXPECT_EQ(h.size(), 3u);
  EXPECT_DOUBLE_EQ(h.next_time().value(), 1.0);
  EXPECT_EQ(h.pop().disk, 0u);
  EXPECT_EQ(h.pop().disk, 3u);
  EXPECT_EQ(h.pop().disk, 2u);
  EXPECT_TRUE(h.empty());
}

TEST(IdleTimerHeap, ArmSequenceBreaksTies) {
  // Equal deadlines pop in arm order: the (time, seq) key is FIFO.
  IdleTimerHeap h;
  h.resize(4);
  h.arm(3, Seconds{5.0}, 0);
  h.arm(1, Seconds{5.0}, 1);
  h.arm(2, Seconds{5.0}, 2);
  EXPECT_EQ(h.pop().disk, 3u);
  EXPECT_EQ(h.pop().disk, 1u);
  EXPECT_EQ(h.pop().disk, 2u);
}

TEST(IdleTimerHeap, RearmReplacesInPlace) {
  IdleTimerHeap h;
  h.resize(3);
  h.arm(0, Seconds{10.0}, 0);
  h.arm(1, Seconds{4.0}, 1);
  // Re-arm disk 0 to an earlier deadline: exactly one entry survives.
  h.arm(0, Seconds{1.0}, 2);
  EXPECT_EQ(h.size(), 2u);
  EXPECT_EQ(h.pop().disk, 0u);
  // Re-arm to a later deadline too.
  h.arm(1, Seconds{9.0}, 3);
  h.arm(2, Seconds{6.0}, 4);
  EXPECT_EQ(h.size(), 2u);
  EXPECT_EQ(h.pop().disk, 2u);
  const auto last = h.pop();
  EXPECT_EQ(last.disk, 1u);
  EXPECT_DOUBLE_EQ(last.time.value(), 9.0);
  EXPECT_TRUE(h.empty());
}

TEST(IdleTimerHeap, DisarmRemovesAndIsIdempotent) {
  IdleTimerHeap h;
  h.resize(4);
  h.arm(0, Seconds{1.0}, 0);
  h.arm(1, Seconds{2.0}, 1);
  h.arm(2, Seconds{3.0}, 2);
  h.disarm(1);
  h.disarm(1);  // no-op on an unarmed disk
  h.disarm(3);  // never armed
  EXPECT_EQ(h.size(), 2u);
  EXPECT_TRUE(h.armed(0));
  EXPECT_FALSE(h.armed(1));
  EXPECT_EQ(h.pop().disk, 0u);
  EXPECT_EQ(h.pop().disk, 2u);
}

/// Brute-force reference for IdleTimerHeap: the latest (deadline, seq) per
/// disk, seq 0 meaning unarmed.
class LinearScanOracle {
 public:
  explicit LinearScanOracle(std::size_t disks) : latest_(disks, {0.0, 0}) {}

  void arm(std::uint32_t d, double t, std::uint64_t seq) {
    latest_[d] = {t, seq};
  }
  void disarm(std::uint32_t d) { latest_[d] = {0.0, 0}; }
  [[nodiscard]] bool armed(std::uint32_t d) const {
    return latest_[d].second != 0;
  }
  [[nodiscard]] double deadline(std::uint32_t d) const {
    return latest_[d].first;
  }
  [[nodiscard]] std::size_t size() const {
    return static_cast<std::size_t>(
        std::count_if(latest_.begin(), latest_.end(),
                      [](const auto& e) { return e.second != 0; }));
  }
  /// Disk with the smallest (deadline, seq); latest_.size() when empty.
  [[nodiscard]] std::size_t front() const {
    std::size_t want = latest_.size();
    for (std::size_t d = 0; d < latest_.size(); ++d) {
      if (latest_[d].second == 0) continue;
      if (want == latest_.size() || latest_[d] < latest_[want]) want = d;
    }
    return want;
  }

 private:
  std::vector<std::pair<double, std::uint64_t>> latest_;
};

/// A copy of `h` reports the oracle's minimum from next_time() and then
/// drains in the oracle's (deadline, seq) order. Works on copies, so the
/// lazily re-armed keys of `h` itself stay as the operations left them.
void expect_drains_like(const IdleTimerHeap& h, LinearScanOracle oracle) {
  ASSERT_EQ(h.size(), oracle.size());
  IdleTimerHeap peek = h;
  if (!peek.empty()) {
    EXPECT_EQ(peek.next_time().value(),
              oracle.deadline(static_cast<std::uint32_t>(oracle.front())));
  }
  IdleTimerHeap drain = h;
  while (!drain.empty()) {
    const auto want = static_cast<std::uint32_t>(oracle.front());
    const auto got = drain.pop();
    ASSERT_EQ(got.disk, want);
    ASSERT_EQ(got.time.value(), oracle.deadline(want));
    oracle.disarm(want);
  }
  EXPECT_EQ(oracle.size(), 0u);
}

TEST(IdleTimerHeap, StressMatchesLinearScanOracle) {
  // Randomized arm / re-arm / disarm / pop / next_time sequence, checked
  // against a brute-force linear scan over the latest arm per disk after
  // every operation. Re-arms move a deadline later (the lazy case), earlier
  // (an immediate sift), or to the same time (a seq tie), and disarms often
  // hit a disk whose heap key is stale.
  constexpr std::size_t kDisks = 16;
  IdleTimerHeap h;
  h.resize(kDisks);
  LinearScanOracle oracle(kDisks);
  Rng rng(2024);
  std::uint64_t seq = 1;
  for (int i = 0; i < 4000; ++i) {
    const auto d = static_cast<std::uint32_t>(rng() % kDisks);
    const auto arm = [&](double t) {
      h.arm(d, Seconds{t}, seq);
      oracle.arm(d, t, seq);
      ++seq;
    };
    // Coarse times force ties across disks.
    const double coarse = static_cast<double>(rng() % 64);
    switch (rng() % 8) {
      case 0:
        h.disarm(d);
        oracle.disarm(d);
        break;
      case 1:  // later
        arm(oracle.armed(d) ? oracle.deadline(d) + 1.0 + coarse : coarse);
        break;
      case 2:  // earlier
        arm(oracle.armed(d) ? oracle.deadline(d) - 1.0 - coarse : coarse);
        break;
      case 3:  // same time: only the seq moves
        arm(oracle.armed(d) ? oracle.deadline(d) : coarse);
        break;
      case 4:  // later, then disarm while the heap key is stale
        arm(oracle.armed(d) ? oracle.deadline(d) + 2.0 : coarse);
        h.disarm(d);
        oracle.disarm(d);
        break;
      case 5:
        if (!h.empty()) {
          const auto want = static_cast<std::uint32_t>(oracle.front());
          ASSERT_EQ(h.next_time().value(), oracle.deadline(want));
          const auto got = h.pop();
          ASSERT_EQ(got.disk, want);
          ASSERT_EQ(got.time.value(), oracle.deadline(want));
          oracle.disarm(want);
        }
        break;
      default:
        arm(coarse);
        break;
    }
    ASSERT_NO_FATAL_FAILURE(expect_drains_like(h, oracle)) << "step " << i;
    for (std::uint32_t k = 0; k < kDisks; ++k) {
      ASSERT_EQ(h.armed(k), oracle.armed(k));
    }
  }
}

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

/// Minimal configurable policy for exercising the simulator directly.
class ProbePolicy : public Policy {
 public:
  explicit ProbePolicy(DpmConfig dpm, DiskSpeed initial = DiskSpeed::kHigh)
      : dpm_(dpm), initial_(initial) {}

  std::string name() const override { return "Probe"; }

  void initialize(ArrayContext& ctx) override {
    for (DiskId d = 0; d < ctx.disk_count(); ++d) {
      ctx.set_initial_speed(d, initial_);
      ctx.set_dpm(d, dpm_);
    }
    for (FileId f = 0; f < ctx.files().size(); ++f) {
      ctx.place(f, static_cast<DiskId>(f % ctx.disk_count()));
    }
  }

  DiskId route(ArrayContext& ctx, const Request& req) override {
    return ctx.location(req.file);
  }

  void on_epoch(ArrayContext& ctx, Seconds now) override {
    ++epochs_;
    last_epoch_requests_ = ctx.epoch_requests();
    (void)now;
  }

  bool allow_spin_down(ArrayContext& ctx, DiskId d, Seconds now) override {
    (void)ctx;
    (void)d;
    (void)now;
    ++spin_down_queries_;
    return allow_spin_down_;
  }

  int epochs_ = 0;
  std::uint64_t last_epoch_requests_ = 0;
  int spin_down_queries_ = 0;
  bool allow_spin_down_ = true;

 private:
  DpmConfig dpm_;
  DiskSpeed initial_;
};

// -------------------------------------------------------------- basic runs

TEST(ArraySim, StaticPolicyExactResponseTimes) {
  StaticPolicy policy;
  const auto files = two_files();
  // Two far-apart requests on different disks: no queueing, no DPM.
  const auto trace = trace_of({{0.0, 0}, {100.0, 1}});
  const auto result = run_simulation(config(2), files, trace, policy);

  const auto& p = two_speed_cheetah();
  const double svc1 = service_time(p.high, 1 * kMiB).value();
  const double svc2 = service_time(p.high, 2 * kMiB).value();
  EXPECT_EQ(result.user_requests, 2u);
  EXPECT_NEAR(result.response_time.min(), std::min(svc1, svc2), 1e-9);
  EXPECT_NEAR(result.response_time.max(), std::max(svc1, svc2), 1e-9);
  EXPECT_NEAR(result.horizon.value(), 100.0 + svc2, 1e-9);
  EXPECT_EQ(result.total_transitions, 0u);
}

TEST(ArraySim, EnergyMatchesHandComputation) {
  StaticPolicy policy;
  const auto files = two_files();
  const auto trace = trace_of({{0.0, 0}});
  const auto result = run_simulation(config(2), files, trace, policy);

  const auto& p = two_speed_cheetah();
  const auto cost = service_cost(p.high, 1 * kMiB);
  const double horizon = cost.time.value();
  // Disk 0: busy the whole horizon. Disk 1: idle at high.
  const double expected =
      cost.energy.value() + p.high.idle_power.value() * horizon;
  EXPECT_NEAR(result.total_energy.value(), expected, 1e-9);
}

TEST(ArraySim, LedgersCoverHorizonOnEveryDisk) {
  ProbePolicy policy({.spin_down_when_idle = true,
                      .idleness_threshold = Seconds{5.0},
                      .spin_up_to_serve = true});
  const auto files = two_files();
  const auto trace = trace_of({{0.0, 0}, {30.0, 1}, {60.0, 0}, {200.0, 1}});
  const auto result = run_simulation(config(3), files, trace, policy);
  for (const auto& l : result.ledgers) {
    EXPECT_NEAR(l.observed().value(), result.horizon.value(), 1e-6);
  }
}

TEST(ArraySim, RejectsUnsortedTrace) {
  StaticPolicy policy;
  const auto files = two_files();
  auto trace = trace_of({{5.0, 0}, {1.0, 1}});
  EXPECT_THROW((void)run_simulation(config(2), files, trace, policy),
               std::invalid_argument);
}

TEST(ArraySim, RejectsUnknownFileInTrace) {
  StaticPolicy policy;
  const auto files = two_files();
  Trace trace;
  Request r;
  r.arrival = Seconds{0.0};
  r.file = 17;  // not in the file set
  r.size = 100;
  trace.requests.push_back(r);
  EXPECT_THROW((void)run_simulation(config(2), files, trace, policy),
               std::invalid_argument);
}

TEST(ArraySim, UnsortedTraceOutranksEarlierUnknownFile) {
  // The unknown file id comes first, the inversion after it: the trace is
  // still reported as unsorted, as it was when sortedness was checked in
  // a pass of its own before the file ids.
  StaticPolicy policy;
  const auto files = two_files();
  auto trace = trace_of({{0.0, 0}, {5.0, 1}, {1.0, 0}});
  trace.requests[0].file = 17;
  try {
    (void)run_simulation(config(2), files, trace, policy);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_STREQ(e.what(), "run_simulation: trace is not sorted");
  }
}

/// Static placement that counts initialize() calls.
class CountingInitPolicy final : public Policy {
 public:
  [[nodiscard]] std::string name() const override { return "CountingInit"; }
  void initialize(ArrayContext& ctx) override {
    ++initializations;
    inner_.initialize(ctx);
  }
  DiskId route(ArrayContext& ctx, const Request& req) override {
    return inner_.route(ctx, req);
  }
  int initializations = 0;

 private:
  StaticPolicy inner_;
};

std::string run_error(const Trace& trace, CountingInitPolicy& policy) {
  try {
    (void)run_simulation(config(2), two_files(), trace, policy);
  } catch (const std::invalid_argument& e) {
    return e.what();
  }
  return "no error";
}

std::string stream_error(const Trace& trace) {
  CountingInitPolicy policy;
  TraceSource source(trace);
  try {
    (void)run_simulation(config(2), two_files(), source, policy);
  } catch (const std::invalid_argument& e) {
    return e.what();
  }
  return "no error";
}

constexpr const char* kNonFinite =
    "run_simulation: trace has a non-finite arrival";

TEST(ArraySim, RejectsNonFiniteArrivalOnBothPaths) {
  // NaN compares false both ways, so an order check alone lets it through.
  const double bad[] = {std::numeric_limits<double>::quiet_NaN(),
                        std::numeric_limits<double>::infinity(),
                        -std::numeric_limits<double>::infinity()};
  for (const double value : bad) {
    for (std::size_t pos = 0; pos < 3; ++pos) {
      SCOPED_TRACE("arrival " + std::to_string(value) + " at " +
                   std::to_string(pos));
      auto trace = trace_of({{0.0, 0}, {5.0, 1}, {10.0, 0}});
      trace.requests[pos].arrival = Seconds{value};
      CountingInitPolicy policy;
      EXPECT_EQ(run_error(trace, policy), kNonFinite);
      EXPECT_EQ(policy.initializations, 0);
      EXPECT_EQ(stream_error(trace), kNonFinite);
    }
  }
}

TEST(ArraySim, NonFiniteArrivalRanksFirst) {
  // Trace path: by kind over the whole trace. The unknown file comes
  // first, the inversion next and the NaN last, and the NaN is reported.
  auto trace = trace_of({{0.0, 0}, {5.0, 1}, {1.0, 0}, {2.0, 1}});
  trace.requests[0].file = 17;
  trace.requests[3].arrival =
      Seconds{std::numeric_limits<double>::quiet_NaN()};
  CountingInitPolicy policy;
  EXPECT_EQ(run_error(trace, policy), kNonFinite);
  trace.requests[3].arrival = Seconds{2.0};
  EXPECT_EQ(run_error(trace, policy), "run_simulation: trace is not sorted");
  trace.requests[2].arrival = Seconds{6.0};
  trace.requests[3].arrival = Seconds{7.0};
  EXPECT_EQ(run_error(trace, policy),
            "run_simulation: trace references unknown file");
  EXPECT_EQ(policy.initializations, 0);

  // Stream path: the first bad request decides; within it a non-finite
  // arrival outranks both an inversion (-inf) and an unknown file.
  auto stream = trace_of({{0.0, 0}, {5.0, 1}});
  stream.requests[1].arrival =
      Seconds{-std::numeric_limits<double>::infinity()};
  stream.requests[1].file = 17;
  EXPECT_EQ(stream_error(stream), kNonFinite);
  stream.requests[1].arrival = Seconds{-1.0};
  EXPECT_EQ(stream_error(stream), "run_simulation: trace is not sorted");
  stream.requests[1].arrival = Seconds{6.0};
  EXPECT_EQ(stream_error(stream),
            "run_simulation: trace references unknown file");
}

TEST(ArraySim, RejectsPolicyThatLeavesFilesUnplaced) {
  class LazyPolicy : public Policy {
   public:
    std::string name() const override { return "Lazy"; }
    void initialize(ArrayContext&) override {}  // places nothing
    DiskId route(ArrayContext& ctx, const Request& req) override {
      return ctx.location(req.file);
    }
  } policy;
  const auto files = two_files();
  const auto trace = trace_of({{0.0, 0}});
  EXPECT_THROW((void)run_simulation(config(2), files, trace, policy),
               std::logic_error);
}

TEST(ArraySim, RejectsRouteToBadDisk) {
  class BadRouter : public Policy {
   public:
    std::string name() const override { return "Bad"; }
    void initialize(ArrayContext& ctx) override {
      for (FileId f = 0; f < ctx.files().size(); ++f) ctx.place(f, 0);
    }
    DiskId route(ArrayContext&, const Request&) override { return 999; }
  } policy;
  const auto files = two_files();
  const auto trace = trace_of({{0.0, 0}});
  EXPECT_THROW((void)run_simulation(config(2), files, trace, policy),
               std::logic_error);

  // Control-mode admission reads the routed disk's backlog, so the route
  // is validated before admission, not at serve time.
  SimConfig controlled = config(2);
  controlled.control.enabled = true;
  controlled.control.admit_window_s = 1.0;
  EXPECT_THROW((void)run_simulation(controlled, files, trace, policy),
               std::logic_error);

  // A striped policy with one out-of-range chunk among valid ones.
  class BadStriper : public BadRouter {
   public:
    bool striped() const override { return true; }
    std::vector<StripeChunk> stripe(ArrayContext&,
                                    const Request& req) override {
      return {StripeChunk{0, req.size / 2},
              StripeChunk{2, req.size - req.size / 2}};
    }
  } striper;
  EXPECT_THROW((void)run_simulation(config(2), files, trace, striper),
               std::logic_error);
  EXPECT_THROW((void)run_simulation(controlled, files, trace, striper),
               std::logic_error);
}


TEST(ArraySim, QueueingMatchesMD1Theory) {
  // Validation against queueing theory: Poisson arrivals at rate lambda to
  // one disk, deterministic service time S (fixed request size, no DPM)
  // is an M/D/1 queue; the Pollaczek-Khinchine mean wait is
  // Wq = rho * S / (2 (1 - rho)). The simulator's mean response time must
  // converge to S + Wq.
  const auto p = two_speed_cheetah();
  const Bytes size = 1 * kMiB;
  const double service_s = service_time(p.high, size).value();
  const double rho = 0.6;
  const double lambda = rho / service_s;

  FileSet files = two_files();
  Trace trace;
  Rng rng(99);
  double t = 0.0;
  for (int i = 0; i < 200'000; ++i) {
    t += rng.exponential(1.0 / lambda);
    Request r;
    r.arrival = Seconds{t};
    r.file = 0;  // always the 1 MiB file on disk 0
    r.size = size;
    trace.requests.push_back(r);
  }
  StaticPolicy policy;
  const auto result = run_simulation(config(1), files, trace, policy);

  const double wq_theory = rho * service_s / (2.0 * (1.0 - rho));
  const double rt_theory = service_s + wq_theory;
  EXPECT_NEAR(result.response_time.mean(), rt_theory, rt_theory * 0.05);
}

// ---------------------------------------------------------------- DPM

TEST(ArraySim, IdleDiskSpinsDownAfterThreshold) {
  ProbePolicy policy({.spin_down_when_idle = true,
                      .idleness_threshold = Seconds{5.0},
                      .spin_up_to_serve = true});
  const auto files = two_files();
  // One early request on disk 0; long gap; horizon extended by late
  // request on disk 1 so the spin-down of disk 0 is inside the horizon.
  const auto trace = trace_of({{0.0, 0}, {100.0, 1}});
  const auto result = run_simulation(config(2), files, trace, policy);
  // Disk 0 spun down (1 transition), disk 1: initial idle check at 5 s
  // spun it down too, then spin-up-to-serve at 100 s (2 transitions).
  EXPECT_EQ(result.ledgers[0].transitions, 1u);
  EXPECT_EQ(result.ledgers[1].transitions, 2u);
  EXPECT_EQ(result.ledgers[1].transitions_up, 1u);
}

TEST(ArraySim, SpinUpDelaysService) {
  ProbePolicy policy({.spin_down_when_idle = true,
                      .idleness_threshold = Seconds{5.0},
                      .spin_up_to_serve = true},
                     DiskSpeed::kLow);
  const auto files = two_files();
  const auto trace = trace_of({{10.0, 0}});
  const auto result = run_simulation(config(2), files, trace, policy);
  const auto& p = two_speed_cheetah();
  const double expected =
      p.transition_up_time.value() + service_time(p.high, 1 * kMiB).value();
  EXPECT_NEAR(result.response_time.mean(), expected, 1e-9);
  EXPECT_EQ(result.ledgers[0].transitions_up, 1u);
}

TEST(ArraySim, ServeAtLowWhenSpinUpDisabled) {
  ProbePolicy policy({.spin_down_when_idle = false,
                      .idleness_threshold = Seconds{5.0},
                      .spin_up_to_serve = false},
                     DiskSpeed::kLow);
  const auto files = two_files();
  const auto trace = trace_of({{10.0, 0}});
  const auto result = run_simulation(config(2), files, trace, policy);
  const auto& p = two_speed_cheetah();
  EXPECT_NEAR(result.response_time.mean(),
              service_time(p.low, 1 * kMiB).value(), 1e-9);
  EXPECT_EQ(result.total_transitions, 0u);
}

TEST(ArraySim, BusyDiskDoesNotSpinDown) {
  // Requests every 2 s against a 5 s threshold: never idle long enough.
  ProbePolicy policy({.spin_down_when_idle = true,
                      .idleness_threshold = Seconds{5.0},
                      .spin_up_to_serve = true});
  const auto files = two_files();
  Trace trace;
  for (int i = 0; i < 50; ++i) {
    Request r;
    r.arrival = Seconds{2.0 * i};
    r.file = 0;
    r.size = 1 * kMiB;
    trace.requests.push_back(r);
  }
  const auto result = run_simulation(config(1), files, trace, policy);
  EXPECT_EQ(result.ledgers[0].transitions, 0u);
}

TEST(ArraySim, SpinDownVetoIsHonoured) {
  ProbePolicy policy({.spin_down_when_idle = true,
                      .idleness_threshold = Seconds{5.0},
                      .spin_up_to_serve = true});
  policy.allow_spin_down_ = false;
  const auto files = two_files();
  const auto trace = trace_of({{0.0, 0}, {100.0, 0}});
  const auto result = run_simulation(config(1), files, trace, policy);
  EXPECT_EQ(result.total_transitions, 0u);
  EXPECT_GT(policy.spin_down_queries_, 0);
}


TEST(ArraySim, BacklogPromotionTriggersOnQueueBuildup) {
  // spin_up_backlog: a low-speed disk serves isolated requests at low
  // speed, but a request arriving to a backlog beyond the limit promotes
  // the disk to high speed first.
  DpmConfig dpm;
  dpm.spin_down_when_idle = false;
  dpm.spin_up_to_serve = false;
  dpm.spin_up_backlog = Seconds{0.1};
  ProbePolicy policy(dpm, DiskSpeed::kLow);
  const auto files = two_files();
  // Three back-to-back requests on disk 0: the first is served at low
  // speed (~0.14 s for 1 MiB), the second arrives with ~0.14 s backlog
  // (> 0.1) and promotes the disk.
  const auto trace = trace_of({{0.0, 0}, {0.001, 0}, {0.002, 0}});
  const auto result = run_simulation(config(1), files, trace, policy);
  EXPECT_EQ(result.ledgers[0].transitions_up, 1u);
  EXPECT_EQ(result.ledgers[0].transitions, 1u);
}

TEST(ArraySim, BacklogPromotionDisabledByDefault) {
  DpmConfig dpm;
  dpm.spin_down_when_idle = false;
  dpm.spin_up_to_serve = false;
  ProbePolicy policy(dpm, DiskSpeed::kLow);
  const auto files = two_files();
  const auto trace = trace_of({{0.0, 0}, {0.001, 0}, {0.002, 0}});
  const auto result = run_simulation(config(1), files, trace, policy);
  EXPECT_EQ(result.total_transitions, 0u);
  // All served at low speed.
  EXPECT_DOUBLE_EQ(result.ledgers[0].time_at_high.value(), 0.0);
}

TEST(ArraySim, BacklogBelowLimitStaysLow) {
  DpmConfig dpm;
  dpm.spin_down_when_idle = false;
  dpm.spin_up_to_serve = false;
  dpm.spin_up_backlog = Seconds{10.0};  // far above any backlog here
  ProbePolicy policy(dpm, DiskSpeed::kLow);
  const auto files = two_files();
  const auto trace = trace_of({{0.0, 0}, {0.001, 0}, {0.002, 0}});
  const auto result = run_simulation(config(1), files, trace, policy);
  EXPECT_EQ(result.total_transitions, 0u);
}

// ---------------------------------------------------------------- epochs

TEST(ArraySim, EpochsFireAtBoundaries) {
  auto cfg = config(2);
  cfg.epoch = Seconds{10.0};
  ProbePolicy policy({});
  const auto files = two_files();
  const auto trace = trace_of({{1.0, 0}, {12.0, 1}, {35.0, 0}});
  (void)run_simulation(cfg, files, trace, policy);
  // Boundaries at 10, 20, 30 precede the arrival at 35.
  EXPECT_EQ(policy.epochs_, 3);
}

TEST(ArraySim, EpochAccessCountsResetEachEpoch) {
  auto cfg = config(2);
  cfg.epoch = Seconds{10.0};
  ProbePolicy policy({});
  const auto files = two_files();
  const auto trace = trace_of({{1.0, 0}, {2.0, 0}, {3.0, 1}, {15.0, 0}, {25.0, 1}});
  (void)run_simulation(cfg, files, trace, policy);
  // Epoch at 20 saw exactly the single request at t=15.
  EXPECT_EQ(policy.last_epoch_requests_, 1u);
}

TEST(ArraySim, RejectsEpochThatIsNotFiniteAndPositive) {
  // A zero or negative stride would never pass the first arrival (the run
  // would hang), NaN would never fire a boundary, and +inf would never
  // fire one either: the entry point refuses all four before any request.
  const auto files = two_files();
  const auto trace = trace_of({{1.0, 0}, {12.0, 1}});
  for (const double epoch : {0.0, -1.0,
                             std::numeric_limits<double>::quiet_NaN(),
                             std::numeric_limits<double>::infinity()}) {
    auto cfg = config(2);
    cfg.epoch = Seconds{epoch};
    ProbePolicy policy({});
    EXPECT_THROW((void)run_simulation(cfg, files, trace, policy),
                 std::invalid_argument)
        << epoch;
    EXPECT_EQ(policy.epochs_, 0) << epoch;
  }
}

// -------------------------------------------------------------- migrations

TEST(ArraySim, MigrationMovesPlacementAndCostsIo) {
  class MigratingPolicy : public ProbePolicy {
   public:
    MigratingPolicy() : ProbePolicy({}) {}
    void on_epoch(ArrayContext& ctx, Seconds) override {
      if (!moved_) {
        ctx.migrate(0, 1);
        moved_ = true;
      }
    }
    bool moved_ = false;
  };
  auto cfg = config(2);
  cfg.epoch = Seconds{10.0};
  MigratingPolicy policy;
  const auto files = two_files();
  const auto trace = trace_of({{1.0, 0}, {20.0, 0}});
  const auto result = run_simulation(cfg, files, trace, policy);
  EXPECT_EQ(result.migrations, 1u);
  EXPECT_EQ(result.migration_bytes, 1 * kMiB);
  // After migration the second request is served by disk 1.
  EXPECT_EQ(result.ledgers[1].requests, 1u);
  // Migration I/O shows up as internal ops on both disks.
  EXPECT_EQ(result.ledgers[0].internal_ops, 1u);
  EXPECT_EQ(result.ledgers[1].internal_ops, 1u);
}

TEST(ArraySim, BackgroundCopyDoesNotChangePlacement) {
  class CopyingPolicy : public ProbePolicy {
   public:
    CopyingPolicy() : ProbePolicy({}) {}
    void after_serve(ArrayContext& ctx, const Request& req,
                     DiskId d) override {
      if (!copied_) {
        ctx.background_copy(d, 1, req.size);
        copied_ = true;
      }
    }
    bool copied_ = false;
  };
  CopyingPolicy policy;
  const auto files = two_files();
  const auto trace = trace_of({{0.0, 0}, {50.0, 0}});
  const auto result = run_simulation(config(2), files, trace, policy);
  EXPECT_EQ(result.migrations, 0u);
  // Both user requests still served by disk 0 (placement unchanged).
  EXPECT_EQ(result.ledgers[0].requests, 2u);
  EXPECT_EQ(result.ledgers[1].internal_ops, 1u);
}

TEST(ArraySim, CountersSurfaceInResult) {
  class CountingPolicy : public ProbePolicy {
   public:
    CountingPolicy() : ProbePolicy({}) {}
    void after_serve(ArrayContext& ctx, const Request&, DiskId) override {
      ctx.bump("probe.touch");
    }
  };
  CountingPolicy policy;
  const auto files = two_files();
  const auto trace = trace_of({{0.0, 0}, {1.0, 1}, {2.0, 0}});
  const auto result = run_simulation(config(2), files, trace, policy);
  EXPECT_EQ(result.counters.at("probe.touch"), 3u);
}

TEST(ArraySim, DeterministicAcrossRuns) {
  const auto files = two_files();
  const auto trace = trace_of({{0.0, 0}, {3.0, 1}, {50.0, 0}, {90.0, 1}});
  ProbePolicy p1({.spin_down_when_idle = true,
                  .idleness_threshold = Seconds{5.0},
                  .spin_up_to_serve = true});
  ProbePolicy p2({.spin_down_when_idle = true,
                  .idleness_threshold = Seconds{5.0},
                  .spin_up_to_serve = true});
  const auto a = run_simulation(config(2), files, trace, p1);
  const auto b = run_simulation(config(2), files, trace, p2);
  EXPECT_DOUBLE_EQ(a.total_energy.value(), b.total_energy.value());
  EXPECT_DOUBLE_EQ(a.response_time.mean(), b.response_time.mean());
  EXPECT_EQ(a.total_transitions, b.total_transitions);
}

}  // namespace
}  // namespace pr
