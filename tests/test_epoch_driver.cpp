// Tests of the epoch clock and the control window (sim/epoch_driver.h),
// driven directly on a bare ArrayContext: no trace, no request loop. A
// recording policy and observer log the boundary work in the order it
// happens.
#include "sim/epoch_driver.h"

#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <utility>
#include <vector>

namespace pr {
namespace {

FileSet two_files() {
  std::vector<FileInfo> files(2);
  files[0] = {0, 1 * kMiB, 1.0};
  files[1] = {1, 2 * kMiB, 0.5};
  return FileSet(std::move(files));
}

SimConfig two_disks() {
  SimConfig c;
  c.disk_params = two_speed_cheetah();
  c.disk_count = 2;
  return c;
}

using Log = std::vector<std::string>;

/// Logs on_epoch and on_control with the epoch's request count at the
/// call, so a log line shows whether the counts were already reset.
class RecordingPolicy : public Policy {
 public:
  explicit RecordingPolicy(Log& log) : log_(log) {}
  std::string name() const override { return "Recording"; }
  void initialize(ArrayContext& /*ctx*/) override {}
  DiskId route(ArrayContext& ctx, const Request& req) override {
    return ctx.location(req.file);
  }
  void on_epoch(ArrayContext& ctx, Seconds now) override {
    log_.push_back("on_epoch@" + std::to_string(now.value()) + " n=" +
                   std::to_string(ctx.epoch_requests()));
  }
  int on_control(ArrayContext& ctx, const ControlDecision& /*decision*/,
                 Seconds /*now*/) override {
    log_.push_back("on_control n=" + std::to_string(ctx.epoch_requests()));
    return 0;
  }

 private:
  Log& log_;
};

class RecordingObserver : public SimObserver {
 public:
  explicit RecordingObserver(Log& log) : log_(log) {}
  void on_epoch_end(const EpochEndEvent& e) override {
    log_.push_back("epoch_end#" + std::to_string(e.index) +
                   " n=" + std::to_string(e.requests));
  }
  void on_control_update(const ControlUpdateEvent& e) override {
    updates.push_back(e);
    log_.push_back("control_update#" + std::to_string(e.epoch_index));
  }
  std::vector<ControlUpdateEvent> updates;

 private:
  Log& log_;
};

/// A window that only records its boundaries and can reset the
/// stride at one chosen boundary.
struct StrideWindow {
  double new_length = 0.0;
  std::uint64_t at_index = 0;
  std::vector<double> boundaries;

  void step(EpochDriver& epochs, Seconds boundary) {
    boundaries.push_back(boundary.value());
    if (new_length > 0.0 && epochs.index() == at_index) {
      epochs.set_length(Seconds{new_length});
    }
  }
};

TEST(EpochDriver, BoundaryOrderIsEpochThenEndThenControlThenReset) {
  const SimConfig sc = two_disks();
  const FileSet files = two_files();
  Log log;
  RecordingObserver observer(log);
  ArrayContext ctx(sc, files, &observer);
  RecordingPolicy policy(log);
  EpochDriver epochs(Seconds{10.0}, ctx, policy);

  // The energy controller with persistence 1 and a bottomless budget asks
  // for a hot-zone grow at every boundary, so the step reaches the policy.
  ControlConfig cc;
  cc.energy_budget_w = 1e9;
  cc.persistence = 1;
  ControlWindow window(cc, ctx, policy);

  epochs.record(0);
  epochs.record(1);
  epochs.record(0);
  epochs.fire_until(Seconds{10.0}, window);
  const Log want = {"on_epoch@10.000000 n=3", "epoch_end#0 n=3",
                    "on_control n=3", "control_update#0"};
  EXPECT_EQ(log, want);
  // The reset follows the step.
  EXPECT_EQ(ctx.epoch_requests(), 0u);
  EXPECT_EQ(ctx.epoch_access_counts(), (std::vector<std::uint64_t>{0, 0}));
  EXPECT_EQ(epochs.index(), 1u);
  EXPECT_EQ(epochs.next_boundary().value(), 20.0);
  EXPECT_EQ(ctx.now().value(), 10.0);
  EXPECT_EQ(ctx.counters().value("sim.epochs"), 1u);
  EXPECT_EQ(ctx.counters().value("control.updates"), 1u);
}

TEST(EpochDriver, StrideChangeTakesEffectFromTheNextBoundary) {
  const SimConfig sc = two_disks();
  const FileSet files = two_files();
  ArrayContext ctx(sc, files);
  Log log;
  RecordingPolicy policy(log);
  EpochDriver epochs(Seconds{10.0}, ctx, policy);
  // Halve the stride at the second boundary (index 1, t = 20): the
  // boundary being fired keeps its time, the ones after it move.
  StrideWindow window;
  window.new_length = 5.0;
  window.at_index = 1;
  epochs.fire_until(Seconds{9.5}, window);
  EXPECT_TRUE(window.boundaries.empty());
  EXPECT_EQ(ctx.now().value(), 9.5);
  // A boundary exactly at t fires.
  epochs.fire_until(Seconds{35.0}, window);
  EXPECT_EQ(window.boundaries, (std::vector<double>{10.0, 20.0, 25.0, 30.0,
                                                    35.0}));
  EXPECT_EQ(ctx.now().value(), 35.0);
  EXPECT_EQ(epochs.length().value(), 5.0);
  EXPECT_EQ(epochs.next_boundary().value(), 40.0);
}

/// Queue 4 MiB of background I/O on disk 0 at t = 0, so its FCFS
/// backlog at an arrival at t = 0 is exactly its ready time.
double backlog_disk0(ArrayContext& ctx) {
  ctx.background_copy(0, 0, 4 * kMiB);
  return ctx.disk(0).ready_time().value();
}

TEST(ControlWindow, ShedsStrictlyAboveTheAdmissionWindow) {
  const SimConfig sc = two_disks();
  const FileSet files = two_files();
  ArrayContext ctx(sc, files);
  Log log;
  RecordingPolicy policy(log);
  const double backlog = backlog_disk0(ctx);
  ASSERT_GT(backlog, 0.0);
  const Request req{.arrival = Seconds{0.0}, .file = 0, .size = 1 * kMiB};

  ControlConfig at;
  at.admit_window_s = backlog;  // backlog == window: admitted
  ControlWindow admit_at(at, ctx, policy);
  EXPECT_TRUE(admit_at.admit(req, 0));

  ControlConfig below;
  below.admit_window_s = std::nextafter(backlog, 0.0);
  ControlWindow shed_below(below, ctx, policy);
  EXPECT_FALSE(shed_below.admit(req, 0));
  // The idle disk has no backlog: admitted under either window.
  EXPECT_TRUE(shed_below.admit(req, 1));
  EXPECT_EQ(ctx.counters().value("control.shed_requests"), 1u);

  ControlConfig off;  // admit_window_s = 0: never sheds
  ControlWindow no_window(off, ctx, policy);
  EXPECT_TRUE(no_window.admit(req, 0));
}

TEST(ControlWindow, ShedRequestIsNotFolded) {
  const SimConfig sc = two_disks();
  const FileSet files = two_files();
  Log log;
  RecordingObserver observer(log);
  ArrayContext ctx(sc, files, &observer);
  RecordingPolicy policy(log);
  EpochDriver epochs(Seconds{10.0}, ctx, policy);
  const double backlog = backlog_disk0(ctx);
  ControlConfig cc;
  cc.admit_window_s = backlog / 2.0;
  ControlWindow window(cc, ctx, policy);

  // Epoch 0: one shed request. Its backlog is not the window's maximum and
  // the request is not served, so nothing is folded.
  EXPECT_FALSE(window.admit(
      Request{.arrival = Seconds{0.0}, .file = 0, .size = 1 * kMiB}, 0));
  epochs.fire_until(Seconds{10.0}, window);
  // Epoch 1: one admitted request on the idle disk, served in 0.25 s.
  EXPECT_TRUE(window.admit(
      Request{.arrival = Seconds{10.0}, .file = 1, .size = 2 * kMiB}, 1));
  window.fold(0.25);
  epochs.fire_until(Seconds{20.0}, window);

  ASSERT_EQ(observer.updates.size(), 2u);
  const ControlUpdateEvent& shed = observer.updates[0];
  EXPECT_EQ(shed.shed, 1u);
  EXPECT_EQ(shed.requests, 0u);
  EXPECT_EQ(shed.mean_rt_s, 0.0);
  EXPECT_EQ(shed.max_backlog_s, 0.0);
  const ControlUpdateEvent& served = observer.updates[1];
  EXPECT_EQ(served.shed, 0u);
  EXPECT_EQ(served.requests, 1u);
  EXPECT_EQ(served.mean_rt_s, 0.25);
  EXPECT_EQ(served.max_backlog_s, 0.0);
}

}  // namespace
}  // namespace pr
