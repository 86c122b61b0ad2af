// obs_overhead — measures what the observability layer costs the
// simulation loop. Three configurations over the same workload/policy:
//   detached   — no observer attached (the null-object fast path; every
//                emission site is a single pointer test). Target: within
//                5% of the pre-observability simulator loop.
//   counting   — a minimal observer that just counts callbacks (pure
//                dispatch cost: virtual calls + per-request ledger deltas).
//   timeseries — TimeSeriesRecorder with 60 s windows (realistic telemetry).
//   jsonl      — JsonlTraceWriter into a discarding stream (serialization
//                cost; dominated by number formatting).
//
// PR_BENCH_QUICK=1 shrinks the trace for smoke runs.
#include <algorithm>
#include <chrono>
#include <iostream>
#include <ostream>
#include <streambuf>
#include <vector>

#include "bench_common.h"
#include "obs/jsonl_writer.h"
#include "obs/time_series.h"
#include "policy/read_policy.h"
#include "policy/static_policy.h"
#include "sim/array_sim.h"
#include "util/table.h"
#include "workload/synthetic.h"

namespace {

using namespace pr;

/// Discards everything written to it (measures formatting, not I/O).
class NullBuffer final : public std::streambuf {
 protected:
  int overflow(int c) override { return c; }
  std::streamsize xsputn(const char*, std::streamsize n) override { return n; }
};

class CountingObserver final : public SimObserver {
 public:
  void on_request_complete(const RequestCompleteEvent&) override { ++events; }
  void on_speed_transition(const SpeedTransitionEvent&) override { ++events; }
  void on_epoch_end(const EpochEndEvent&) override { ++events; }
  std::uint64_t events = 0;
};

/// One full run under READ (DPM enabled, so the idle-check machinery is
/// actually exercised), for counter inspection and timing. StaticPolicy
/// disables spin-downs entirely, which would leave the churn counters at
/// zero.
SimResult run_read(const SimConfig& sim, const SyntheticWorkload& w) {
  ReadPolicy policy;
  return run_simulation(sim, w.files, w.trace, policy, nullptr);
}

/// Best-of-`reps` wall time of a READ run, in seconds.
double time_read_run(const SimConfig& sim, const SyntheticWorkload& w,
                     int reps) {
  double best = 1e300;
  for (int r = 0; r < reps; ++r) {
    ReadPolicy policy;
    const auto t0 = std::chrono::steady_clock::now();
    const auto result = run_simulation(sim, w.files, w.trace, policy, nullptr);
    const auto t1 = std::chrono::steady_clock::now();
    if (result.user_requests != w.trace.requests.size()) {
      std::cerr << "unexpected request count\n";
      std::exit(1);
    }
    best = std::min(best, std::chrono::duration<double>(t1 - t0).count());
  }
  return best;
}

/// Best-of-`reps` wall time of one simulation run, in seconds.
double time_run(const SimConfig& sim, const SyntheticWorkload& w,
                SimObserver* observer, int reps) {
  double best = 1e300;
  for (int r = 0; r < reps; ++r) {
    StaticPolicy policy;
    const auto t0 = std::chrono::steady_clock::now();
    const auto result =
        run_simulation(sim, w.files, w.trace, policy, observer);
    const auto t1 = std::chrono::steady_clock::now();
    if (result.user_requests != w.trace.requests.size()) {
      std::cerr << "unexpected request count\n";
      std::exit(1);
    }
    best = std::min(best, std::chrono::duration<double>(t1 - t0).count());
  }
  return best;
}

}  // namespace

int main() {
  const bool quick = bench::quick_mode();

  SyntheticWorkloadConfig wc;
  wc.file_count = 1'000;
  wc.request_count = quick ? 50'000 : 500'000;
  const auto w = generate_workload(wc);

  SimConfig sim;
  sim.disk_params = two_speed_cheetah();
  sim.disk_count = 8;
  sim.epoch = Seconds{600.0};

  const int reps = quick ? 3 : 5;
  // Warm up allocators and caches before the measured runs.
  (void)time_run(sim, w, nullptr, 1);

  const double detached = time_run(sim, w, nullptr, reps);

  CountingObserver counting;
  const double with_counting = time_run(sim, w, &counting, reps);

  TimeSeriesRecorder recorder{Seconds{60.0}};
  const double with_timeseries = time_run(sim, w, &recorder, reps);

  NullBuffer sink_buffer;
  std::ostream sink(&sink_buffer);
  JsonlTraceWriter writer(sink);
  const double with_jsonl = time_run(sim, w, &writer, reps);

  const double per_req = 1e9 / static_cast<double>(w.trace.requests.size());
  AsciiTable table("Observer overhead, " +
                   std::to_string(w.trace.requests.size()) +
                   " requests, 8 disks, Static policy (best of " +
                   std::to_string(reps) + ")");
  table.set_header({"configuration", "time (ms)", "ns/request",
                    "vs detached"});
  const auto row = [&](const char* label, double t) {
    table.add_row({label, num(t * 1e3, 2), num(t * per_req, 1),
                   pct(t / detached - 1.0, 1)});
  };
  row("detached (no observer)", detached);
  row("counting observer", with_counting);
  row("timeseries (60 s windows)", with_timeseries);
  row("jsonl (discarded stream)", with_jsonl);
  table.print(std::cout);

  bench::CsvSink csv("obs_overhead");
  csv.row(std::string("configuration"), std::string("seconds"),
          std::string("vs_detached"));
  csv.row(std::string("detached"), detached, 0.0);
  csv.row(std::string("counting"), with_counting,
          with_counting / detached - 1.0);
  csv.row(std::string("timeseries"), with_timeseries,
          with_timeseries / detached - 1.0);
  csv.row(std::string("jsonl"), with_jsonl, with_jsonl / detached - 1.0);

  // Idle-check churn under READ, where DPM is live and every serve
  // re-arms a deadline: the counters the snapshot script records.
  {
    const double read_run = time_read_run(sim, w, reps);
    const SimResult result = run_read(sim, w);
    bench::CsvSink churn("obs_overhead_counters");
    churn.row(std::string("counter"), std::string("value"));
    for (const char* key :
         {"sim.idle_checks", "sim.idle_checks_deferred", "sim.spin_downs",
          "sim.spin_ups_to_serve", "sim.epochs"}) {
      const auto it = result.counters.find(key);
      churn.row(std::string(key),
                it == result.counters.end() ? std::uint64_t{0} : it->second);
    }
    churn.row(std::string("read_run_ns"),
              static_cast<std::uint64_t>(read_run * 1e9));
  }

  std::cout << "\nThe detached configuration is the acceptance gate: every "
               "emission site collapses to one pointer test, so it must sit "
               "within 5% of the pre-observability loop. Attached observers "
               "pay dispatch + per-request ledger deltas; JSONL additionally "
               "pays number formatting.\n";
  std::cout << "counting observer saw " << counting.events << " events\n";
  return 0;
}
