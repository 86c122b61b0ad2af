// Tests for the observability layer: SimObserver dispatch and ordering,
// CounterRegistry semantics, TimeSeriesRecorder bucketing, and the
// determinism contract of JsonlTraceWriter.
#include "obs/observer.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <fstream>
#include <limits>
#include <locale>
#include <sstream>
#include <stdexcept>
#include <streambuf>
#include <string>
#include <vector>

#include "core/session.h"
#include "energy_auditor.h"
#include "obs/counter_registry.h"
#include "obs/jsonl_writer.h"
#include "obs/time_series.h"
#include "policy/static_policy.h"
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

/// Places file f on disk f % n, applies one DpmConfig everywhere.
class ProbePolicy : public Policy {
 public:
  explicit ProbePolicy(DpmConfig dpm) : dpm_(dpm) {}

  std::string name() const override { return "Probe"; }

  void initialize(ArrayContext& ctx) override {
    for (DiskId d = 0; d < ctx.disk_count(); ++d) ctx.set_dpm(d, dpm_);
    for (FileId f = 0; f < ctx.files().size(); ++f) {
      ctx.place(f, static_cast<DiskId>(f % ctx.disk_count()));
    }
  }

  DiskId route(ArrayContext& ctx, const Request& req) override {
    return ctx.location(req.file);
  }

 private:
  DpmConfig dpm_;
};

/// Records every callback as a compact tag, in dispatch order.
class RecordingObserver : public SimObserver {
 public:
  void on_run_start(const RunStartEvent& e) override {
    tags.push_back("run_start");
    run_start = e;
  }
  void on_request_complete(const RequestCompleteEvent& e) override {
    tags.push_back("request@" + std::to_string(e.arrival.value()));
    requests.push_back(e);
  }
  void on_speed_transition(const SpeedTransitionEvent& e) override {
    tags.push_back(std::string("transition:") +
                   (e.to == DiskSpeed::kHigh ? "up" : "down"));
    transitions.push_back(e);
  }
  void on_disk_state_change(const DiskStateChangeEvent& e) override {
    tags.push_back(std::string("state:") + to_string(e.to));
    states.push_back(e);
  }
  void on_epoch_end(const EpochEndEvent& e) override {
    tags.push_back("epoch@" + std::to_string(e.time.value()));
    epochs.push_back(e);
  }
  void on_migration(const MigrationEvent& e) override {
    tags.push_back("migration");
    migrations.push_back(e);
  }
  void on_run_end(const RunEndEvent& e) override {
    tags.push_back("run_end");
    run_end = e;
  }

  std::vector<std::string> tags;
  RunStartEvent run_start;
  RunEndEvent run_end;
  std::vector<RequestCompleteEvent> requests;
  std::vector<SpeedTransitionEvent> transitions;
  std::vector<DiskStateChangeEvent> states;
  std::vector<EpochEndEvent> epochs;
  std::vector<MigrationEvent> migrations;
};

std::size_t index_of(const std::vector<std::string>& tags,
                     const std::string& tag) {
  for (std::size_t i = 0; i < tags.size(); ++i) {
    if (tags[i] == tag) return i;
  }
  ADD_FAILURE() << "tag not dispatched: " << tag;
  return tags.size();
}

// --------------------------------------------------------- dispatch & order

TEST(Observer, HookOrderWithinOneRun) {
  DpmConfig dpm;
  dpm.spin_down_when_idle = true;
  dpm.idleness_threshold = Seconds{5.0};
  dpm.spin_up_to_serve = true;
  ProbePolicy policy(dpm);
  const auto files = two_files();
  const auto trace = trace_of({{0.0, 0}, {100.0, 0}});
  auto cfg = config(1);
  cfg.epoch = Seconds{50.0};

  RecordingObserver obs;
  const auto result = run_simulation(cfg, files, trace, policy, &obs);

  ASSERT_FALSE(obs.tags.empty());
  EXPECT_EQ(obs.tags.front(), "run_start");
  EXPECT_EQ(obs.tags.back(), "run_end");
  EXPECT_EQ(obs.run_start.disk_count, 1u);
  EXPECT_EQ(obs.run_start.file_count, 2u);
  ASSERT_EQ(obs.run_start.initial_speeds.size(), 1u);
  EXPECT_EQ(obs.run_start.initial_speeds[0], DiskSpeed::kHigh);

  // The disk idles after the first request, spins down at ~completion+5s,
  // then spins back up to serve the arrival at t=100.
  ASSERT_EQ(obs.transitions.size(), 2u);
  EXPECT_EQ(obs.transitions[0].to, DiskSpeed::kLow);
  EXPECT_EQ(obs.transitions[0].cause, TransitionCause::kDpmIdle);
  EXPECT_EQ(obs.transitions[1].to, DiskSpeed::kHigh);
  EXPECT_EQ(obs.transitions[1].cause, TransitionCause::kSpinUpToServe);
  EXPECT_DOUBLE_EQ(obs.transitions[1].time.value(), 100.0);
  EXPECT_GT(obs.transitions[1].finish.value(), 100.0);

  // Every speed transition is immediately followed by its state change.
  EXPECT_EQ(index_of(obs.tags, "transition:down") + 1,
            index_of(obs.tags, "state:low_power"));
  EXPECT_EQ(index_of(obs.tags, "transition:up") + 1,
            index_of(obs.tags, "state:active"));

  // Within the t=100 instant: epoch boundary (t=100 <= arrival) fires
  // before the spin-up, which precedes the request completion.
  const auto epoch100 = index_of(obs.tags, "epoch@100.000000");
  const auto up = index_of(obs.tags, "transition:up");
  const auto request100 = index_of(obs.tags, "request@100.000000");
  EXPECT_LT(index_of(obs.tags, "epoch@50.000000"), epoch100);
  EXPECT_LT(epoch100, up);
  EXPECT_LT(up, request100);

  // Spin-down happened between the two requests.
  const auto down = index_of(obs.tags, "transition:down");
  EXPECT_LT(index_of(obs.tags, "request@0.000000"), down);
  EXPECT_LT(down, index_of(obs.tags, "epoch@50.000000"));

  ASSERT_EQ(obs.epochs.size(), 2u);
  EXPECT_EQ(obs.epochs[0].index, 0u);
  EXPECT_EQ(obs.epochs[0].requests, 1u);  // only the t=0 arrival
  EXPECT_EQ(obs.epochs[1].index, 1u);
  EXPECT_EQ(obs.epochs[1].requests, 0u);

  ASSERT_EQ(obs.requests.size(), 2u);
  EXPECT_EQ(obs.requests[0].file, 0u);
  EXPECT_EQ(obs.requests[0].disk, 0u);
  EXPECT_EQ(obs.requests[0].bytes, 1 * kMiB);
  EXPECT_GT(obs.requests[0].service_time.value(), 0.0);
  EXPECT_GT(obs.requests[0].energy.value(), 0.0);
  EXPECT_DOUBLE_EQ(obs.requests[0].response_time().value(),
                   obs.requests[0].completion.value() -
                       obs.requests[0].arrival.value());

  EXPECT_DOUBLE_EQ(obs.run_end.horizon.value(), result.horizon.value());
  EXPECT_EQ(obs.run_end.user_requests, 2u);
  EXPECT_DOUBLE_EQ(obs.run_end.total_energy.value(),
                   result.total_energy.value());
}

// ------------------------------------------------- same-instant event order

/// Records the hook stream as compact tags with their instants, in the
/// ordering contract's vocabulary: "epoch", "fail:d" / "slow:d" /
/// "recover:d" (fault events), "rebuild_start:d" / "rebuild_step:d" /
/// "rebuild_done:d", "down:d" / "up:d" (an idle check that spun a disk
/// down, a spin-up) and "request:d". State changes always follow their
/// transition and are left out.
class InstantRecorder : public SimObserver {
 public:
  void on_epoch_end(const EpochEndEvent& e) override { add(e.time, "epoch"); }
  void on_disk_fail(const DiskFailEvent& e) override {
    add(e.time, e.mode == FaultMode::kFailStop ? "fail" : "slow", e.disk);
  }
  void on_disk_recover(const DiskRecoverEvent& e) override {
    add(e.time, "recover", e.disk);
  }
  void on_rebuild_start(const RebuildStartEvent& e) override {
    add(e.time, "rebuild_start", e.disk);
  }
  void on_rebuild_progress(const RebuildProgressEvent& e) override {
    add(e.time, "rebuild_step", e.disk);
  }
  void on_rebuild_complete(const RebuildCompleteEvent& e) override {
    add(e.time, "rebuild_done", e.disk);
  }
  void on_speed_transition(const SpeedTransitionEvent& e) override {
    add(e.time, e.to == DiskSpeed::kHigh ? "up" : "down", e.disk);
  }
  void on_request_complete(const RequestCompleteEvent& e) override {
    add(e.arrival, "request", e.disk);
  }

  /// The tags dispatched at exactly `t`, in dispatch order.
  [[nodiscard]] std::vector<std::string> at(double t) const {
    std::vector<std::string> out;
    for (const auto& [time, tag] : tags_) {
      if (time == t) out.push_back(tag);
    }
    return out;
  }

 private:
  void add(Seconds t, const std::string& what) {
    tags_.emplace_back(t.value(), what);
  }
  void add(Seconds t, const std::string& what, DiskId d) {
    add(t, what + ":" + std::to_string(d));
  }

  std::vector<std::pair<double, std::string>> tags_;
};

/// One same-instant scenario on a 4-disk RAID-5 array (groups {0,1} and
/// {2,3}, rebuild on). File 0 lives on disk 0, file 1 on disk 1; disks 2
/// and 3 hold nothing, so a fail-stop there starts a zero-byte rebuild
/// whose one step falls due at the failure instant.
struct OrderRow {
  const char* name;
  double tau;
  /// Epoch stride: the first boundary is at `epoch`.
  double epoch;
  /// DPM on with H = tau: every disk's initial idle check falls due at tau.
  bool idle_at_tau;
  std::vector<FaultEvent> faults;
  Trace trace;
  std::vector<std::string> expected;
};

FaultEvent fail_at(double t, DiskId d) {
  return FaultEvent{Seconds{t}, d, FaultKind::kFail, 1.0};
}
FaultEvent slow_at(double t, DiskId d) {
  return FaultEvent{Seconds{t}, d, FaultKind::kSlowdown, 2.0};
}

// The ordering contract at one instant (docs/OBSERVABILITY.md): epoch
// boundaries → fault events → rebuild steps → DPM idle checks → the
// arrival; and the end of the run is not an event. Rows without an
// arrival at tau get one at 30 on disk 1, which carries the run past tau.
TEST(Observer, SameInstantOrderingContract) {
  const Trace at_30 = trace_of({{30.0, 1}});
  const Trace at_tau = trace_of({{10.0, 0}});
  const Trace at_0 = trace_of({{0.0, 1}});
  const std::vector<OrderRow> rows = {
      {"epoch before fault", 10.0, 10.0, false, {slow_at(10.0, 2)}, at_30,
       {"epoch", "slow:2"}},
      {"every plan event at the instant before the rebuild step it started",
       10.0, 100.0, false, {fail_at(10.0, 2), slow_at(10.0, 3)}, at_30,
       {"fail:2", "rebuild_start:2", "slow:3", "rebuild_step:2",
        "rebuild_done:2", "recover:2"}},
      {"fault before idle checks", 10.0, 100.0, true, {slow_at(10.0, 2)},
       at_30, {"slow:2", "down:0", "down:1", "down:2", "down:3"}},
      // The rebuild I/O disarms the checks on disks 2 and 3.
      {"rebuild step before idle checks", 10.0, 100.0, true,
       {fail_at(10.0, 2)}, at_30,
       {"fail:2", "rebuild_start:2", "rebuild_step:2", "rebuild_done:2",
        "recover:2", "down:0", "down:1"}},
      {"idle checks before the arrival", 10.0, 100.0, true, {}, at_tau,
       {"down:0", "down:1", "down:2", "down:3", "up:0", "request:0"}},
      {"epoch before idle checks", 10.0, 10.0, true, {}, at_30,
       {"epoch", "down:0", "down:1", "down:2", "down:3"}},
      {"all five at one instant", 10.0, 10.0, true, {fail_at(10.0, 2)},
       at_tau,
       {"epoch", "fail:2", "rebuild_start:2", "rebuild_step:2",
        "rebuild_done:2", "recover:2", "down:0", "down:1", "up:0",
        "request:0"}},
      // Run end: the 2 MiB request completes well after 1 ms, but with no
      // deferred event after the last arrival no boundary fires ...
      {"no boundary fires after the last arrival without a later event",
       0.001, 0.001, false, {}, at_0, {}},
      // ... while a deferred event inside the horizon pulls it in.
      {"a later deferred event fires the boundary before it", 0.001, 0.001,
       false, {slow_at(0.002, 2)}, at_0, {"epoch"}},
  };

  for (const OrderRow& row : rows) {
    SCOPED_TRACE(row.name);
    DpmConfig dpm;
    dpm.spin_down_when_idle = row.idle_at_tau;
    dpm.idleness_threshold = Seconds{row.tau};
    dpm.spin_up_to_serve = true;
    ProbePolicy policy(dpm);
    auto cfg = config(4);
    cfg.epoch = Seconds{row.epoch};
    cfg.redundancy.kind = RedundancyKind::kRaid5;
    cfg.redundancy.group = 2;
    cfg.redundancy.rebuild = true;
    const FaultPlan plan = FaultPlan::from_events(row.faults);

    InstantRecorder obs;
    const SimResult result =
        run_simulation(cfg, two_files(), row.trace, policy, &obs, &plan);
    ASSERT_GT(result.horizon.value(), row.tau) << "tau lies outside the run";
    EXPECT_EQ(obs.at(row.tau), row.expected);
  }
}

TEST(Observer, ObserverIsReadOnly_ResultsIdenticalWithAndWithout) {
  auto wc = worldcup98_light_config(11);
  wc.file_count = 200;
  wc.request_count = 5'000;
  const auto w = generate_workload(wc);
  auto cfg = config(4);
  cfg.epoch = Seconds{600.0};

  ProbePolicy bare{DpmConfig{}};
  const auto without = run_simulation(cfg, w.files, w.trace, bare);

  ProbePolicy observed{DpmConfig{}};
  RecordingObserver obs;
  TimeSeriesRecorder recorder{Seconds{60.0}};
  ObserverList list;
  list.add(obs);
  list.add(recorder);
  const auto with = run_simulation(cfg, w.files, w.trace, observed, &list);

  EXPECT_DOUBLE_EQ(without.mean_response_time_s(),
                   with.mean_response_time_s());
  EXPECT_DOUBLE_EQ(without.energy_joules(), with.energy_joules());
  EXPECT_EQ(without.total_transitions, with.total_transitions);
  EXPECT_EQ(without.migrations, with.migrations);
  EXPECT_EQ(without.counters, with.counters);
  EXPECT_EQ(obs.requests.size(), with.user_requests);
}

TEST(Observer, MigrationEventsMirrorContextMigrations) {
  // PDC migrates files at epoch boundaries; count via observer.
  auto wc = worldcup98_light_config(3);
  wc.file_count = 100;
  wc.request_count = 3'000;
  const auto w = generate_workload(wc);

  SystemConfig cfg;
  cfg.sim.disk_count = 4;
  cfg.sim.epoch = Seconds{200.0};

  RecordingObserver obs;
  const auto report = SimulationSession(cfg)
                          .with_workload(w)
                          .with_policy("pdc")
                          .with_observer(obs)
                          .run();
  EXPECT_EQ(obs.migrations.size(), report.sim.migrations);
  for (const auto& m : obs.migrations) {
    EXPECT_NE(m.from, m.to);
    EXPECT_GT(m.bytes, 0u);
  }
}

TEST(Observer, CoreCountersExposedInResult) {
  DpmConfig dpm;
  dpm.spin_down_when_idle = true;
  dpm.idleness_threshold = Seconds{5.0};
  dpm.spin_up_to_serve = true;
  ProbePolicy policy(dpm);
  const auto files = two_files();
  const auto trace = trace_of({{0.0, 0}, {100.0, 0}});
  auto cfg = config(1);
  cfg.epoch = Seconds{50.0};

  const auto result = run_simulation(cfg, files, trace, policy);
  EXPECT_EQ(result.counters.at("sim.epochs"), 2u);
  EXPECT_EQ(result.counters.at("sim.spin_downs"), 1u);
  EXPECT_EQ(result.counters.at("sim.spin_ups_to_serve"), 1u);
  EXPECT_GE(result.counters.at("sim.idle_checks"), 1u);
}

// ---------------------------------------------------------- CounterRegistry

TEST(CounterRegistry, InternAddSnapshot) {
  CounterRegistry reg;
  const auto h = reg.intern("a.first");
  EXPECT_EQ(reg.intern("a.first"), h);  // idempotent
  reg.add(h, 2);
  reg.add("b.second");
  reg.add("a.first");  // by-name hits the same counter
  EXPECT_EQ(reg.value("a.first"), 3u);
  EXPECT_EQ(reg.value("b.second"), 1u);
  EXPECT_EQ(reg.value("missing"), 0u);
  EXPECT_TRUE(reg.contains("a.first"));
  EXPECT_FALSE(reg.contains("missing"));
  EXPECT_EQ(reg.name(h), "a.first");

  const auto zero = reg.intern("c.zero");
  (void)zero;
  const auto snap = reg.snapshot();
  ASSERT_EQ(snap.size(), 3u);
  EXPECT_EQ(snap.at("a.first"), 3u);
  EXPECT_EQ(snap.at("b.second"), 1u);
  EXPECT_EQ(snap.at("c.zero"), 0u);  // registered-but-zero is visible
}

// -------------------------------------------------------- TimeSeriesRecorder

TEST(TimeSeriesRecorder, RejectsNonPositiveWindow) {
  EXPECT_THROW(TimeSeriesRecorder{Seconds{0.0}}, std::invalid_argument);
  EXPECT_THROW(TimeSeriesRecorder{Seconds{-1.0}}, std::invalid_argument);
}

TEST(TimeSeriesRecorder, BucketsRequestsIntoWindows) {
  ProbePolicy policy{DpmConfig{}};
  const auto files = two_files();
  const auto trace = trace_of({{10.0, 0}, {70.0, 0}, {75.0, 1}});
  auto cfg = config(2);

  TimeSeriesRecorder rec{Seconds{60.0}};
  const auto result = run_simulation(cfg, files, trace, policy, &rec);

  EXPECT_EQ(rec.disk_count(), 2u);
  ASSERT_GE(rec.window_count(), 2u);
  EXPECT_EQ(rec.at(0, 0).requests, 1u);   // t=10 on disk 0
  EXPECT_EQ(rec.at(1, 0).requests, 1u);   // t=70 on disk 0
  EXPECT_EQ(rec.at(1, 1).requests, 1u);   // t=75 on disk 1
  EXPECT_EQ(rec.at(0, 1).requests, 0u);
  EXPECT_EQ(rec.at(0, 0).bytes, 1 * kMiB);

  // Totals across windows match the run.
  std::uint64_t requests = 0;
  double busy = 0.0;
  for (std::size_t w = 0; w < rec.window_count(); ++w) {
    const auto total = rec.array_total(w);
    requests += total.requests;
    busy += total.busy.value();
  }
  EXPECT_EQ(requests, result.user_requests);
  double ledger_busy = 0.0;
  for (const auto& l : result.ledgers) ledger_busy += l.busy_time.value();
  EXPECT_NEAR(busy, ledger_busy, 1e-9);

  // Disks stay at high speed the whole run: the integrated high-speed time
  // per disk spans the horizon.
  double high_disk0 = 0.0;
  for (std::size_t w = 0; w < rec.window_count(); ++w) {
    high_disk0 += rec.at(w, 0).time_at_high.value();
    EXPECT_GE(rec.at(w, 0).high_speed_fraction(rec.window_length()), 0.0);
  }
  EXPECT_NEAR(high_disk0, result.horizon.value(), 1e-9);
}

TEST(TimeSeriesRecorder, TracksSpeedBandAcrossTransitions) {
  DpmConfig dpm;
  dpm.spin_down_when_idle = true;
  dpm.idleness_threshold = Seconds{5.0};
  dpm.spin_up_to_serve = true;
  ProbePolicy policy(dpm);
  const auto files = two_files();
  const auto trace = trace_of({{0.0, 0}, {200.0, 0}});
  auto cfg = config(1);

  TimeSeriesRecorder rec{Seconds{60.0}};
  const auto result = run_simulation(cfg, files, trace, policy, &rec);
  ASSERT_EQ(result.total_transitions, 2u);

  // One spin-down in window 0, one spin-up in window 3 (t=200).
  EXPECT_EQ(rec.at(0, 0).transitions_down, 1u);
  EXPECT_EQ(rec.at(3, 0).transitions_up, 1u);

  // The middle windows are fully at low speed.
  EXPECT_NEAR(rec.at(1, 0).time_at_high.value(), 0.0, 1e-9);
  EXPECT_NEAR(rec.at(2, 0).time_at_high.value(), 0.0, 1e-9);
  // Window 0 is split: high until the spin-down begins.
  const double w0_high = rec.at(0, 0).time_at_high.value();
  EXPECT_GT(w0_high, 0.0);
  EXPECT_LT(w0_high, 60.0);

  // Total high time across windows equals horizon minus the low-speed span
  // (commanded-speed signal; the transition itself counts toward the
  // target speed's span).
  double high = 0.0;
  for (std::size_t w = 0; w < rec.window_count(); ++w) {
    high += rec.at(w, 0).time_at_high.value();
  }
  EXPECT_GT(high, 0.0);
  EXPECT_LT(high, result.horizon.value());
}

TEST(TimeSeriesRecorder, CsvHasHeaderAndOneRowPerWindowDisk) {
  ProbePolicy policy{DpmConfig{}};
  const auto files = two_files();
  const auto trace = trace_of({{10.0, 0}, {130.0, 1}});
  auto cfg = config(2);

  TimeSeriesRecorder rec{Seconds{60.0}};
  (void)run_simulation(cfg, files, trace, policy, &rec);

  std::ostringstream out;
  rec.write_csv(out);
  const std::string csv = out.str();
  std::size_t lines = 0;
  for (const char c : csv) lines += c == '\n' ? 1 : 0;
  EXPECT_EQ(lines, 1 + rec.window_count() * rec.disk_count());
  EXPECT_NE(csv.find("window,start_s,disk,requests"), std::string::npos);
}

// ---------------------------------------------------------- JsonlTraceWriter

TEST(JsonlTraceWriter, SameSeedRunsAreByteIdentical) {
  auto wc = worldcup98_light_config(7);
  wc.file_count = 200;
  wc.request_count = 5'000;

  const auto run_once = [&wc] {
    const auto w = generate_workload(wc);
    SystemConfig cfg;
    cfg.sim.disk_count = 4;
    cfg.sim.epoch = Seconds{600.0};
    std::ostringstream out;
    JsonlTraceWriter writer(out);
    const auto report = SimulationSession(cfg)
                            .with_workload(w)
                            .with_policy("read")
                            .with_observer(writer)
                            .run();
    (void)report;
    std::string text = out.str();
    EXPECT_GT(writer.lines_written(), 0u);
    EXPECT_EQ(writer.lines_written(),
              static_cast<std::uint64_t>(
                  std::count(text.begin(), text.end(), '\n')));
    return text;
  };

  const std::string first = run_once();
  const std::string second = run_once();
  EXPECT_FALSE(first.empty());
  EXPECT_EQ(first, second);
}

TEST(JsonlTraceWriter, EventFilterSuppressesRequestLines) {
  ProbePolicy policy{DpmConfig{}};
  const auto files = two_files();
  const auto trace = trace_of({{0.0, 0}, {1.0, 1}});
  auto cfg = config(2);

  JsonlOptions options;
  options.requests = false;
  std::ostringstream out;
  JsonlTraceWriter writer(out, options);
  (void)run_simulation(cfg, files, trace, policy, &writer);
  EXPECT_EQ(out.str().find("\"ev\":\"request\""), std::string::npos);
  EXPECT_NE(out.str().find("\"ev\":\"run_start\""), std::string::npos);
  EXPECT_NE(out.str().find("\"ev\":\"run_end\""), std::string::npos);
}

/// Groups thousands and uses a decimal comma: every number a locale-aware
/// `<<` prints under it differs from the classic bytes.
class GroupingCommaPunct : public std::numpunct<char> {
 protected:
  char do_decimal_point() const override { return ','; }
  char do_thousands_sep() const override { return '.'; }
  std::string do_grouping() const override { return "\3"; }
};

TEST(JsonlTraceWriter, StreamLocaleChangesNoByteAndIsLeftAlone) {
  auto wc = worldcup98_light_config(11);
  wc.file_count = 200;
  wc.request_count = 5'000;
  const auto w = generate_workload(wc);

  const auto run_into = [&w](std::ostream& out) {
    SystemConfig cfg;
    cfg.sim.disk_count = 4;
    cfg.sim.epoch = Seconds{600.0};
    JsonlOptions options;
    options.copies = true;
    JsonlTraceWriter writer(out, options);
    (void)SimulationSession(cfg)
        .with_workload(w)
        .with_policy("read")
        .with_observer(writer)
        .run();
  };

  std::ostringstream classic;
  classic.imbue(std::locale::classic());
  run_into(classic);

  std::ostringstream custom;
  custom.imbue(std::locale(std::locale::classic(), new GroupingCommaPunct));
  run_into(custom);

  // Request sizes run past 1000 bytes, so grouping would have shown.
  EXPECT_NE(classic.str().find(R"("bytes":)"), std::string::npos);
  EXPECT_EQ(custom.str(), classic.str());
  // The writer must not re-imbue a stream it does not own.
  EXPECT_EQ(std::use_facet<std::numpunct<char>>(custom.getloc())
                .decimal_point(),
            ',');
}

TEST(JsonlTraceWriter, ThrowsOnUnopenablePath) {
  EXPECT_THROW(JsonlTraceWriter("/nonexistent-dir/trace.jsonl"),
               std::runtime_error);
}

/// Records every write the writer makes, or rejects them all.
class WriteLog final : public std::streambuf {
 public:
  explicit WriteLog(bool reject = false) : reject_(reject) {}
  std::vector<std::string> writes;

 protected:
  std::streamsize xsputn(const char* s, std::streamsize n) override {
    if (reject_) return 0;
    writes.emplace_back(s, static_cast<std::size_t>(n));
    return n;
  }
  int overflow(int c) override {
    if (reject_ || c == traits_type::eof()) return traits_type::eof();
    writes.emplace_back(1, traits_type::to_char_type(c));
    return c;
  }

 private:
  bool reject_;
};

TEST(JsonlTraceWriter, WriteFailuresAreNotCountedAndFailTheRun) {
  auto wc = worldcup98_light_config(13);
  wc.file_count = 200;
  wc.request_count = 2'000;
  const auto w = generate_workload(wc);
  SystemConfig cfg;
  cfg.sim.disk_count = 4;
  cfg.sim.epoch = Seconds{600.0};

  WriteLog rejecting(/*reject=*/true);
  std::ostream out(&rejecting);
  JsonlTraceWriter writer(out);
  try {
    (void)SimulationSession(cfg)
        .with_workload(w)
        .with_policy("read")
        .with_observer(writer)
        .run();
    FAIL() << "a run whose every JSONL write failed reported success";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("stream"), std::string::npos)
        << e.what();
  }
  EXPECT_EQ(writer.lines_written(), 0u);
  EXPECT_TRUE(rejecting.writes.empty());
}

TEST(JsonlTraceWriter, WriteFailureOnAFileNamesThePath) {
  // /dev/full accepts the open and fails every write that reaches it.
  const std::string path = "/dev/full";
  if (!std::ofstream(path)) GTEST_SKIP() << path << " cannot be opened";
  JsonlTraceWriter writer(path);
  RunStartEvent start;
  start.disk_count = 1;
  start.initial_speeds = {DiskSpeed::kHigh};
  writer.on_run_start(start);
  try {
    writer.on_run_end(RunEndEvent{});
    FAIL() << "the final flush to " << path << " failed silently";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find(path), std::string::npos)
        << e.what();
  }
}

TEST(JsonlTraceWriter, ExtremeLinesOfEveryKindFitOneWrite) {
  // The longest double text (24 bytes), the longest integers and
  // non-finite energies in every field: each bounded line must still
  // reach the stream in a single write.
  const Seconds t{-std::numeric_limits<double>::denorm_min()};
  const double inf = std::numeric_limits<double>::infinity();
  const auto u64 = std::numeric_limits<std::uint64_t>::max();
  const auto u32 = std::numeric_limits<std::uint32_t>::max();

  WriteLog log;
  std::ostream out(&log);
  JsonlOptions all;
  all.copies = true;
  JsonlTraceWriter writer(out, all);

  RunStartEvent start;
  start.disk_count = u64;
  start.file_count = u64;
  start.epoch = t;
  start.initial_speeds = {DiskSpeed::kHigh, DiskSpeed::kLow};
  writer.on_run_start(start);
  writer.on_request_complete({.arrival = t,
                              .completion = t,
                              .file = u32,
                              .disk = u32,
                              .bytes = u64,
                              .backlog = t,
                              .service_time = t,
                              .energy = Joules{-inf},
                              .stripe_chunks = u32});
  writer.on_speed_transition({.time = t,
                              .finish = t,
                              .disk = u32,
                              .from = DiskSpeed::kHigh,
                              .to = DiskSpeed::kLow,
                              .cause = TransitionCause::kSpinUpToServe,
                              .energy = Joules{inf}});
  writer.on_disk_state_change({.time = t,
                               .disk = u32,
                               .from = DiskPowerState::kLowPower,
                               .to = DiskPowerState::kActive});
  writer.on_epoch_end({.time = t, .index = u64, .requests = u64});
  writer.on_migration({.time = t,
                       .file = u32,
                       .from = u32,
                       .to = u32,
                       .bytes = u64,
                       .energy = Joules{inf}});
  writer.on_background_copy({.time = t,
                             .from = u32,
                             .to = u32,
                             .bytes = u64,
                             .energy = Joules{-inf}});
  writer.on_disk_fail({.time = t,
                       .disk = u32,
                       .mode = FaultMode::kFailStop,
                       .factor = t.value()});
  writer.on_disk_recover({.time = t, .disk = u32, .downtime = t});
  writer.on_request_degraded({.time = t,
                              .file = u32,
                              .intended = u32,
                              .served_by = u32,
                              .outcome = DegradedOutcome::kReconstructed,
                              .slowdown = t.value()});
  writer.on_rebuild_start({.time = t, .disk = u32, .bytes = u64});
  writer.on_rebuild_progress({.time = t,
                              .disk = u32,
                              .done = u64,
                              .total = u64,
                              .energy = Joules{inf}});
  writer.on_rebuild_complete(
      {.time = t, .disk = u32, .bytes = u64, .duration = t});
  writer.on_stripe_reconstruct({.time = t,
                                .file = u32,
                                .failed = u32,
                                .sources = u32,
                                .bytes = u64});
  writer.on_control_update({.time = t,
                            .epoch_index = u64,
                            .requests = u64,
                            .shed = u64,
                            .mean_rt_s = t.value(),
                            .max_backlog_s = t.value(),
                            .energy_j = -inf,
                            .h_scale = t.value(),
                            .hot_delta = std::numeric_limits<int>::min(),
                            .epoch_scale = t.value(),
                            .epoch_len_s = t.value()});
  writer.on_run_end({.horizon = t,
                     .user_requests = u64,
                     .total_energy = Joules{-inf}});

  constexpr std::size_t kKinds = 16;
  ASSERT_EQ(log.writes.size(), kKinds);
  EXPECT_EQ(writer.lines_written(), kKinds);
  for (const auto& line : log.writes) {
    EXPECT_LE(line.size(), JsonlTraceWriter::kLineBytes);
    EXPECT_EQ(std::count(line.begin(), line.end(), '\n'), 1) << line;
    EXPECT_EQ(line.back(), '\n') << line;
  }
  EXPECT_EQ(log.writes[1],
            R"({"ev":"request","t":-4.9406564584124654e-324,)"
            R"("completion":-4.9406564584124654e-324,"file":4294967295,)"
            R"("disk":4294967295,"bytes":18446744073709551615,"rt_s":0,)"
            R"("backlog_s":-4.9406564584124654e-324,)"
            R"("service_s":-4.9406564584124654e-324,"energy_j":-inf,)"
            R"("chunks":4294967295})"
            "\n");
}

TEST(JsonlTraceWriter, LongRunStartLineSpillsAcrossWrites) {
  // run_start is the one unbounded line: a wide array overflows the line
  // buffer, which goes to the stream piecewise and still counts one line.
  WriteLog log;
  std::ostream out(&log);
  JsonlTraceWriter writer(out);
  RunStartEvent start;
  start.disk_count = 1'000;
  start.file_count = 7;
  start.epoch = Seconds{600.0};
  std::string expected =
      R"({"ev":"run_start","disks":1000,"files":7,"epoch_s":600,)"
      R"("initial_speeds":[)";
  for (std::size_t d = 0; d < start.disk_count; ++d) {
    const DiskSpeed speed = d % 3 == 0 ? DiskSpeed::kLow : DiskSpeed::kHigh;
    start.initial_speeds.push_back(speed);
    expected += (d > 0 ? ",\"" : "\"") + std::string(to_string(speed)) + "\"";
  }
  expected += "]}\n";
  writer.on_run_start(start);

  EXPECT_GT(log.writes.size(), 1u);
  std::string joined;
  for (const auto& piece : log.writes) {
    EXPECT_LE(piece.size(), JsonlTraceWriter::kLineBytes);
    joined += piece;
  }
  EXPECT_EQ(joined, expected);
  EXPECT_EQ(writer.lines_written(), 1u);
}

// --------------------------------------------------------------- ObserverList

TEST(ObserverList, FanOutStreamsMatchSoleObserverByteForByte) {
  // Two attached observers take the fan-out dispatch path instead of
  // sole(); both must see exactly the stream a lone observer sees.
  auto wc = worldcup98_light_config(9);
  wc.file_count = 100;
  wc.request_count = 2'000;
  const auto w = generate_workload(wc);
  SystemConfig cfg;
  cfg.sim.disk_count = 4;
  cfg.sim.epoch = Seconds{600.0};

  std::ostringstream sole_out;
  {
    JsonlTraceWriter sole(sole_out);
    (void)SimulationSession(cfg)
        .with_workload(w)
        .with_policy("read")
        .with_observer(sole)
        .run();
  }

  std::ostringstream first_out, second_out;
  {
    JsonlTraceWriter first(first_out);
    JsonlTraceWriter second(second_out);
    (void)SimulationSession(cfg)
        .with_workload(w)
        .with_policy("read")
        .with_observer(first)
        .with_observer(second)
        .run();
  }

  EXPECT_FALSE(sole_out.str().empty());
  EXPECT_EQ(sole_out.str(), first_out.str());
  EXPECT_EQ(first_out.str(), second_out.str());
}

// ------------------------------------------------------ energy conservation

TEST(Observer, EnergyConservationAcrossPolicies) {
  // Event-level energies must account for every joule the ledgers record:
  // READ exercises transitions, MAID background copies, PDC migrations.
  for (const char* policy : {"read", "maid", "pdc"}) {
    auto wc = worldcup98_light_config(5);
    wc.file_count = 150;
    wc.request_count = 4'000;
    const auto w = generate_workload(wc);
    SystemConfig cfg;
    cfg.sim.disk_count = 4;
    cfg.sim.epoch = Seconds{600.0};

    EnergyAuditor audit;
    const auto report = SimulationSession(cfg)
                            .with_workload(w)
                            .with_policy(policy)
                            .with_observer(audit)
                            .run();

    double ledger_energy = 0.0;
    for (const auto& l : report.sim.ledgers) ledger_energy += l.energy.value();
    ASSERT_GT(audit.total(), 0.0) << policy;
    const double tolerance = 1e-9 * audit.total();
    EXPECT_NEAR(audit.total(), report.sim.energy_joules(), tolerance)
        << policy;
    EXPECT_NEAR(audit.total(), ledger_energy, tolerance) << policy;
    EXPECT_NEAR(audit.sum(), audit.total(), tolerance) << policy;
  }
}

TEST(ObserverList, FansOutInAttachmentOrder) {
  class Tagger : public SimObserver {
   public:
    Tagger(std::vector<int>& log, int id) : log_(&log), id_(id) {}
    void on_epoch_end(const EpochEndEvent&) override {
      log_->push_back(id_);
    }

   private:
    std::vector<int>* log_;
    int id_;
  };

  std::vector<int> log;
  Tagger a(log, 1);
  Tagger b(log, 2);
  ObserverList list;
  EXPECT_TRUE(list.empty());
  list.add(a);
  EXPECT_EQ(list.sole(), &a);
  list.add(b);
  EXPECT_EQ(list.sole(), nullptr);
  list.on_epoch_end(EpochEndEvent{});
  ASSERT_EQ(log.size(), 2u);
  EXPECT_EQ(log[0], 1);
  EXPECT_EQ(log[1], 2);
}

}  // namespace
}  // namespace pr
