// spans.h — host-time tracing for prbench, recorded entirely from outside
// the library: forwarding decorators around the public seams (Policy,
// RequestSource, SimObserver) plus explicit spans around public calls
// (run_simulation, score, run_fleet, workload generation).
//
// Two kinds of records:
//   spans  — (name, start, end, parent, run) for per-run and per-epoch
//            work, kept in memory and written when the benchmark ends;
//   hooks  — aggregates for per-request hooks and next_batch. Timing every
//            route() or request-complete callback costs more than the hook
//            itself, so those are timed 1 call in sample_period() and
//            scaled by their call count, after subtracting the cost of an
//            empty span measured in place at every timed call.
//
// Spans come in two kinds. Container spans (bench.traced, exp.cell,
// sim.run, fleet.shard) enclose many hooks. Hook spans (policy.on_epoch,
// obs.epoch_end, ...) wrap one call. A hook made while a hook span is open
// (a migration's observer callback inside Policy::on_epoch) is not
// sampled: its time already sits inside that span, so counting it again
// would break the rule that self times add up to the enclosing run.
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <ctime>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "obs/observer.h"
#include "sim/array_sim.h"
#include "trace/request_source.h"

namespace prbench {

[[nodiscard]] inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// CPU time of the whole process (every thread), seconds.
[[nodiscard]] inline double process_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) * 1e-9;
}

/// Per-request hooks aggregated instead of stored as spans.
enum class Hook : std::uint8_t {
  kNextBatch,
  kRoute,
  kStripe,
  kAfterServe,
  kAllowSpinDown,
  kObsRequestComplete,
  kObsSpeedTransition,
  kObsDiskStateChange,
  kObsRequestDegraded,
  kObsStripeReconstruct,
  kObsBackgroundCopy,
  kCount,
};

/// 1 call in this many is timed (a power of two). A timed call reads the
/// clock four times, and each read stalls the pipeline until the
/// simulator's outstanding memory loads land: on a 4-vCPU Xeon VM a timed
/// call costs ~300 ns of the run. Policy hooks take a few ns, so 1 in 1024
/// keeps that near 0.3 ns per request; observer callbacks take up to ~1 µs
/// (JSONL formatting), so 1 in 64 costs them under 1 %. next_batch runs
/// once per 256 requests; 1 in 4 keeps its cost under 1 % of read_day.
[[nodiscard]] constexpr std::uint64_t sample_period(Hook hook) {
  if (hook == Hook::kNextBatch) return 4;
  return hook >= Hook::kObsRequestComplete ? 64 : 1024;
}

/// A sampled call slower than this is the host taking the CPU away, not
/// hook work (per-request hooks take at most microseconds); scaled by the
/// sample period, one such sample would add phantom milliseconds. It is
/// dropped from the sample, and counted. next_batch is exempt: parsing a
/// batch of CSV lines takes tens of microseconds.
inline constexpr std::int64_t kPreemptedNs = 50'000;

struct HookStats {
  std::uint64_t calls = 0;  ///< calls made outside any hook span
  std::uint64_t timed = 0;
  std::int64_t timed_ns = 0;
  /// Empty-span cost measured next to each timed call, summed.
  std::int64_t clock_ns = 0;
  std::uint64_t preempted = 0;  ///< sampled calls dropped as preempted
};

struct Span {
  const char* name = "";
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  /// Index of the parent span in the merged log; -1 for a root.
  std::int32_t parent = -1;
  std::int32_t run = 0;
};

/// The spans and hook aggregates of one single-threaded unit of work (a
/// replay, a grid cell, a fleet shard). A RunTrace is only ever touched by
/// the thread running that unit.
using HookTable =
    std::array<HookStats, static_cast<std::size_t>(Hook::kCount)>;

class RunTrace {
 public:
  explicit RunTrace(std::int32_t run) : run_(run) {}

  /// Open a span as a child of the innermost open one; returns its local
  /// index for close(). Spans must close in LIFO order.
  [[nodiscard]] std::int32_t open(const char* name, bool hook_span);
  void close(std::int32_t id);

  /// Count a hook call made outside any hook span; true when this call
  /// should be timed.
  [[nodiscard]] bool sample(Hook hook) {
    if (hook_depth_ > 0) return false;
    HookStats& s = hooks_[static_cast<std::size_t>(hook)];
    return s.calls++ % sample_period(hook) == 0;
  }
  void add_sample(Hook hook, std::int64_t ns, std::int64_t clock_ns) {
    HookStats& s = hooks_[static_cast<std::size_t>(hook)];
    if (hook != Hook::kNextBatch && ns - clock_ns > kPreemptedNs) {
      ++s.preempted;
      return;
    }
    ++s.timed;
    s.timed_ns += ns;
    s.clock_ns += clock_ns;
  }
  /// Add calls counted outside the RunTrace (TimedPolicy's hooks).
  void add_calls(Hook hook, std::uint64_t calls) {
    hooks_[static_cast<std::size_t>(hook)].calls += calls;
  }
  void count_event() { ++events_; }

  [[nodiscard]] std::int32_t run() const { return run_; }
  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }
  [[nodiscard]] const HookTable& hooks() const { return hooks_; }
  [[nodiscard]] std::uint64_t events() const { return events_; }

 private:
  struct Open {
    std::int32_t id;
    bool hook_span;
  };
  std::int32_t run_;
  std::vector<Span> spans_;  // parent = local index, or -1
  std::vector<Open> stack_;
  int hook_depth_ = 0;
  HookTable hooks_{};
  std::uint64_t events_ = 0;
};

/// Scoped span on a RunTrace.
class SpanScope {
 public:
  SpanScope(RunTrace& trace, const char* name, bool hook_span = false)
      : trace_(trace), id_(trace.open(name, hook_span)) {}
  ~SpanScope() { trace_.close(id_); }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

  [[nodiscard]] std::int32_t id() const { return id_; }

 private:
  RunTrace& trace_;
  std::int32_t id_;
};

/// All RunTraces of one traced run. Runs are created from any thread
/// (fleet shards build their policies on pool workers), so creation is
/// locked; each RunTrace is then private to its thread.
class Tracer {
 public:

  /// A new run. Its root spans become children of span `parent_local` of
  /// `parent` (a run created earlier, possibly on another thread), or
  /// roots of the log when `parent` is null.
  RunTrace& new_run(const RunTrace* parent = nullptr,
                    std::int32_t parent_local = -1);

  /// Flattened log: every run's spans, parents resolved to merged indexes.
  /// Call only after every run has finished.
  [[nodiscard]] std::vector<Span> merge() const;

  /// Scaled hook time for `hook` over every run, ns, span clock removed.
  [[nodiscard]] double hook_ns(Hook hook) const;
  [[nodiscard]] std::uint64_t hook_calls(Hook hook) const;
  [[nodiscard]] std::uint64_t events() const;
  /// Mean empty-span cost measured at the timed hook calls, ns.
  [[nodiscard]] double span_clock_ns() const;

  /// Self time of each span of a merged log: its duration minus the union
  /// of its direct children's intervals (children on other threads may
  /// overlap each other).
  [[nodiscard]] static std::vector<std::int64_t> self_times(
      const std::vector<Span>& spans);

  /// Write the (name, start, end, parent, run) log and the hook table as
  /// CSV. Returns false when a file cannot be written.
  [[nodiscard]] bool write_csv(const std::string& spans_path,
                               const std::string& hooks_path) const;

 private:
  struct Link {
    const RunTrace* run;
    std::int32_t local;
  };
  std::mutex mutex_;  // guards runs_ and parents_ while runs are created
  std::vector<std::unique_ptr<RunTrace>> runs_;
  std::vector<Link> parents_;  // per run: where its roots attach
};

/// Forwarding Policy: every virtual goes to `inner`; per-request hooks are
/// sampled, per-epoch and per-run hooks are spans.
class TimedPolicy final : public pr::Policy {
 public:
  TimedPolicy(std::unique_ptr<pr::Policy> inner, RunTrace& trace)
      : inner_(std::move(inner)), trace_(trace), striped_(inner_->striped()) {}
  /// Adds the per-request hook call counts to the RunTrace.
  ~TimedPolicy() override;
  TimedPolicy(const TimedPolicy&) = delete;
  TimedPolicy& operator=(const TimedPolicy&) = delete;

  [[nodiscard]] std::string name() const override { return inner_->name(); }
  void initialize(pr::ArrayContext& ctx) override;
  pr::DiskId route(pr::ArrayContext& ctx, const pr::Request& req) override;
  /// Cached: the simulator asks once per request, and no policy changes
  /// the answer during a run.
  [[nodiscard]] bool striped() const override { return striped_; }
  std::vector<pr::StripeChunk> stripe(pr::ArrayContext& ctx,
                                      const pr::Request& req) override;
  void after_serve(pr::ArrayContext& ctx, const pr::Request& req,
                   pr::DiskId d) override;
  void on_epoch(pr::ArrayContext& ctx, pr::Seconds now) override;
  int on_control(pr::ArrayContext& ctx, const pr::ControlDecision& decision,
                 pr::Seconds now) override;
  bool allow_spin_down(pr::ArrayContext& ctx, pr::DiskId d,
                       pr::Seconds now) override;
  [[nodiscard]] pr::RedundancyScheme* redundancy() override {
    return inner_->redundancy();
  }

 private:
  static constexpr Hook kFirstHook = Hook::kRoute;
  static constexpr std::size_t kHooks =
      static_cast<std::size_t>(Hook::kAllowSpinDown) -
      static_cast<std::size_t>(kFirstHook) + 1;

  /// Count a per-request hook call; true when this call should be timed.
  /// The counts sit beside inner_, which every call loads anyway: counting
  /// in the RunTrace touched a second cache line per call and cost ~2 % of
  /// read_day. The simulator calls these hooks only from its event loop,
  /// never inside another hook span, so unlike RunTrace::sample they need
  /// no open-span check.
  [[nodiscard]] bool sample(Hook hook) {
    const auto i = static_cast<std::size_t>(hook) -
                   static_cast<std::size_t>(kFirstHook);
    return (calls_[i]++ & (sample_period(hook) - 1)) == 0;
  }

  std::unique_ptr<pr::Policy> inner_;
  std::array<std::uint64_t, kHooks> calls_{};
  RunTrace& trace_;
  bool striped_;
};

/// Forwarding RequestSource timing every next_batch call.
class TimedSource final : public pr::RequestSource {
 public:
  TimedSource(pr::RequestSource& inner, RunTrace& trace)
      : inner_(inner), trace_(trace) {}

  [[nodiscard]] std::string describe() const override {
    return inner_.describe();
  }
  [[nodiscard]] bool streaming() const override { return inner_.streaming(); }

 protected:
  bool poll(pr::Request& out) override { return inner_.next(out); }
  std::size_t poll_batch(pr::Request* out, std::size_t max) override;

 private:
  pr::RequestSource& inner_;
  RunTrace& trace_;
};

/// Forwarding SimObserver: per-request callbacks sampled, the rest spans.
/// Without an inner observer (fleet shards) it only records the interval
/// from run start to run end as the `fleet.shard` span.
class TimedObserver final : public pr::SimObserver {
 public:
  TimedObserver(pr::SimObserver* inner, RunTrace& trace)
      : inner_(inner), trace_(trace) {}

  void on_run_start(const pr::RunStartEvent& event) override;
  void on_request_complete(const pr::RequestCompleteEvent& event) override;
  void on_speed_transition(const pr::SpeedTransitionEvent& event) override;
  void on_disk_state_change(const pr::DiskStateChangeEvent& event) override;
  void on_epoch_end(const pr::EpochEndEvent& event) override;
  void on_migration(const pr::MigrationEvent& event) override;
  void on_background_copy(const pr::BackgroundCopyEvent& event) override;
  void on_disk_fail(const pr::DiskFailEvent& event) override;
  void on_disk_recover(const pr::DiskRecoverEvent& event) override;
  void on_request_degraded(const pr::RequestDegradedEvent& event) override;
  void on_rebuild_start(const pr::RebuildStartEvent& event) override;
  void on_rebuild_progress(const pr::RebuildProgressEvent& event) override;
  void on_rebuild_complete(const pr::RebuildCompleteEvent& event) override;
  void on_stripe_reconstruct(const pr::StripeReconstructEvent& event) override;
  void on_control_update(const pr::ControlUpdateEvent& event) override;
  void on_run_end(const pr::RunEndEvent& event) override;

 private:
  template <typename Event, typename Fn>
  void sampled(Hook hook, const Event& event, Fn fn);
  template <typename Event, typename Fn>
  void spanned(const char* name, const Event& event, Fn fn);

  pr::SimObserver* inner_;
  RunTrace& trace_;
  std::int32_t shard_id_ = -1;
};

}  // namespace prbench
