// micro_benchmarks — google-benchmark microbenchmarks for the hot paths:
// idle-timer re-arm, Zipf sampling, disk service, degraded RAID-5 reads,
// PRESS evaluation, end-to-end simulation throughput, JSONL event
// formatting and CSV trace export. These guard
// against performance regressions that would make the Fig. 7 grid
// impractical.
#include <benchmark/benchmark.h>

#include <array>
#include <charconv>
#include <ostream>
#include <sstream>
#include <streambuf>
#include <string>
#include <vector>

#include "core/session.h"
#include "core/system.h"
#include "fault/fault_state.h"
#include "obs/counter_registry.h"
#include "obs/jsonl_writer.h"
#include "obs/time_series.h"
#include "policy/online_read_policy.h"
#include "policy/read_policy.h"
#include "policy/static_policy.h"
#include "press/press_model.h"
#include "redundancy/scheme.h"
#include "sim/idle_timer.h"
#include "sim/planner.h"
#include "trace/csv_trace.h"
#include "trace/stream_reader.h"
#include "util/fmt.h"
#include "workload/synthetic.h"
#include "workload/zipf.h"

namespace {

using namespace pr;

// The DPM scheduling pattern: every serve re-arms the disk's single idle
// deadline, so n re-arms keep the structure at |disks| entries. Deadlines
// only move later here, the lazy case: arm() records the deadline without
// a sift, and pop() settles each stale key once it reaches the top.
void BM_IdleTimerRearm(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  constexpr std::uint32_t kDisks = 8;
  Rng rng(1);
  for (auto _ : state) {
    IdleTimerHeap h;
    h.resize(kDisks);
    std::uint64_t seq = 0;
    double t = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      t += rng.uniform();
      h.arm(static_cast<std::uint32_t>(rng() % kDisks), Seconds{t + 10.0},
            seq++);
    }
    while (!h.empty()) benchmark::DoNotOptimize(h.pop());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * n);
}
BENCHMARK(BM_IdleTimerRearm)->Arg(1'000)->Arg(100'000);

void BM_ZipfSample(benchmark::State& state) {
  ZipfDistribution zipf(static_cast<std::size_t>(state.range(0)), 0.8);
  Rng rng(7);
  for (auto _ : state) {
    benchmark::DoNotOptimize(zipf.sample(rng));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ZipfSample)->Arg(400)->Arg(4'079)->Arg(100'000);

void BM_DiskServe(benchmark::State& state) {
  Disk disk(0, two_speed_cheetah(), DiskSpeed::kHigh);
  double t = 0.0;
  for (auto _ : state) {
    t += 0.01;
    benchmark::DoNotOptimize(disk.serve(Seconds{t}, 8 * kKiB));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_DiskServe);

// One reconstructed read as the simulator handles it: RAID-5 over 8 disks
// (one whole-array group) with disk 0 failed, a request routed to disk 0,
// plan_request replacing the chunk with reads of the 7 survivors, then
// those serves. Structure-level probe for the degraded fan-out that the
// raid5_degraded prbench workload measures end to end.
void BM_DegradedRead(benchmark::State& state) {
  constexpr std::size_t kDisks = 8;
  SimConfig sim;
  sim.disk_params = two_speed_cheetah();
  sim.disk_count = kDisks;
  const FileSet files(std::vector<FileInfo>{{0, 8 * kKiB, 1.0}});
  ArrayContext ctx(sim, files);
  FaultState faults;
  faults.resize(kDisks);
  faults.apply(FaultEvent{Seconds{0.0}, 0, FaultKind::kFail, 1.0});
  RedundancyConfig redundancy;
  redundancy.kind = RedundancyKind::kRaid5;
  const auto scheme = make_scheme(redundancy, kDisks);
  std::vector<Disk> disks;
  for (DiskId d = 0; d < kDisks; ++d) {
    disks.emplace_back(d, sim.disk_params, DiskSpeed::kHigh);
  }
  RequestPlan plan;
  std::vector<StripeChunk> chunks;
  double t = 0.0;
  for (auto _ : state) {
    t += 0.01;
    const Request req{.arrival = Seconds{t}, .file = 0, .size = 8 * kKiB};
    chunks.assign(1, StripeChunk{0, req.size});
    plan_request(ctx, faults, scheme.get(), req, std::move(chunks), plan);
    Seconds done{0.0};
    for (const StripeChunk& c : plan.serves) {
      done = std::max(done, disks[c.disk].serve(req.arrival, c.bytes));
    }
    benchmark::DoNotOptimize(done);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_DegradedRead);

void BM_PressDiskAfr(benchmark::State& state) {
  PressModel press;
  DiskTelemetry t;
  t.temperature = Celsius{47.0};
  t.utilization = 0.62;
  t.transitions_per_day = 38.0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(press.disk_afr(t));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PressDiskAfr);

void BM_TraceGeneration(benchmark::State& state) {
  SyntheticWorkloadConfig cfg;
  cfg.file_count = 1'000;
  cfg.request_count = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(generate_workload(cfg));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_TraceGeneration)->Arg(10'000)->Arg(100'000);

void BM_SimulationThroughput(benchmark::State& state) {
  SyntheticWorkloadConfig cfg;
  cfg.file_count = 1'000;
  cfg.request_count = static_cast<std::size_t>(state.range(0));
  const auto w = generate_workload(cfg);
  SimConfig sim;
  sim.disk_params = two_speed_cheetah();
  sim.disk_count = 8;
  for (auto _ : state) {
    StaticPolicy policy;
    benchmark::DoNotOptimize(
        run_simulation(sim, w.files, w.trace, policy));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_SimulationThroughput)->Arg(10'000)->Arg(100'000);

void BM_ReadPolicySimulation(benchmark::State& state) {
  SyntheticWorkloadConfig cfg;
  cfg.file_count = 1'000;
  cfg.request_count = static_cast<std::size_t>(state.range(0));
  const auto w = generate_workload(cfg);
  SimConfig sim;
  sim.disk_params = two_speed_cheetah();
  sim.disk_count = 8;
  sim.epoch = Seconds{600.0};
  for (auto _ : state) {
    ReadPolicy policy;
    benchmark::DoNotOptimize(
        run_simulation(sim, w.files, w.trace, policy));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_ReadPolicySimulation)->Arg(10'000)->Arg(100'000);

// Same loop as BM_SimulationThroughput with a TimeSeriesRecorder attached;
// the gap to the detached run is the full observability cost (dispatch +
// ledger deltas + window bucketing). bench/obs_overhead prints the same
// comparison as a readable table.
void BM_SimulationWithTimeSeries(benchmark::State& state) {
  SyntheticWorkloadConfig cfg;
  cfg.file_count = 1'000;
  cfg.request_count = static_cast<std::size_t>(state.range(0));
  const auto w = generate_workload(cfg);
  SimConfig sim;
  sim.disk_params = two_speed_cheetah();
  sim.disk_count = 8;
  for (auto _ : state) {
    StaticPolicy policy;
    TimeSeriesRecorder recorder{Seconds{60.0}};
    benchmark::DoNotOptimize(
        run_simulation(sim, w.files, w.trace, policy, &recorder));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_SimulationWithTimeSeries)->Arg(10'000)->Arg(100'000);

// Batch READ vs the incremental variant on the same trace: the delta is
// the per-serve counting plus mid-epoch promotions against the O(k)
// boundary rebalance both share.
void BM_OnlineReadSimulation(benchmark::State& state) {
  SyntheticWorkloadConfig cfg;
  cfg.file_count = 1'000;
  cfg.request_count = static_cast<std::size_t>(state.range(0));
  const auto w = generate_workload(cfg);
  SimConfig sim;
  sim.disk_params = two_speed_cheetah();
  sim.disk_count = 8;
  sim.epoch = Seconds{600.0};
  for (auto _ : state) {
    OnlineReadPolicy policy;
    benchmark::DoNotOptimize(
        run_simulation(sim, w.files, w.trace, policy));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_OnlineReadSimulation)->Arg(10'000)->Arg(100'000);

// Parse + frame throughput of the bounded-memory CSV reader, excluding
// simulation: the floor any streaming run pays per request over the
// materialized path. Drains through next_batch in the simulator's unit of
// pull (kRequestBatch in sim/array_sim.cpp), as a streamed run does.
void BM_StreamingIngest(benchmark::State& state) {
  SyntheticWorkloadConfig cfg;
  cfg.file_count = 1'000;
  cfg.request_count = static_cast<std::size_t>(state.range(0));
  const auto w = generate_workload(cfg);
  std::ostringstream text;
  write_csv_trace(w.trace, text);
  const std::string bytes = text.str();
  for (auto _ : state) {
    std::istringstream in(bytes);
    CsvStreamSource source(in, "bench.csv");
    std::array<Request, 256> batch;
    while (source.next_batch(batch.data(), batch.size()) > 0) {
      benchmark::DoNotOptimize(batch);
    }
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_StreamingIngest)->Arg(10'000)->Arg(100'000);

// End-to-end streamed simulation (CSV text -> reader -> simulator),
// comparable against BM_SimulationThroughput's materialized loop.
void BM_StreamingSimulation(benchmark::State& state) {
  SyntheticWorkloadConfig cfg;
  cfg.file_count = 1'000;
  cfg.request_count = static_cast<std::size_t>(state.range(0));
  const auto w = generate_workload(cfg);
  std::ostringstream text;
  write_csv_trace(w.trace, text);
  const std::string bytes = text.str();
  SimConfig sim;
  sim.disk_params = two_speed_cheetah();
  sim.disk_count = 8;
  for (auto _ : state) {
    std::istringstream in(bytes);
    CsvStreamSource source(in, "bench.csv");
    StaticPolicy policy;
    benchmark::DoNotOptimize(
        run_simulation(sim, w.files, source, policy));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_StreamingSimulation)->Arg(10'000)->Arg(100'000);

void BM_CounterRegistryAdd(benchmark::State& state) {
  CounterRegistry registry;
  const auto handle = registry.intern("bench.counter");
  for (auto _ : state) {
    registry.add(handle);
    benchmark::DoNotOptimize(registry);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CounterRegistryAdd);

void BM_CounterRegistryAddByName(benchmark::State& state) {
  CounterRegistry registry;
  registry.add("bench.counter");
  for (auto _ : state) {
    registry.add("bench.counter");
    benchmark::DoNotOptimize(registry);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CounterRegistryAddByName);

// ---- JSONL emission ----------------------------------------------------

/// Request events of a wc98-light READ replay (8 disks, epoch 3600 s; the
/// day generated at 50,000 requests), recorded once: the values the JSONL
/// request line formats on a real run.
class RequestCapture final : public SimObserver {
 public:
  void on_request_complete(const RequestCompleteEvent& event) override {
    events.push_back(event);
  }
  std::vector<RequestCompleteEvent> events;
};

const std::vector<RequestCompleteEvent>& read_day_requests() {
  static const std::vector<RequestCompleteEvent> events = [] {
    auto wc = worldcup98_light_config(42);
    wc.request_count = 50'000;
    const auto w = generate_workload(wc);
    SystemConfig cfg;
    cfg.sim.disk_count = 8;
    cfg.sim.epoch = Seconds{3600.0};
    RequestCapture capture;
    (void)SimulationSession(cfg)
        .with_workload(w)
        .with_policy("read")
        .with_observer(capture)
        .run();
    return std::move(capture.events);
  }();
  return events;
}

/// The six doubles of every captured request line, in line order.
const std::vector<double>& read_day_doubles() {
  static const std::vector<double> values = [] {
    std::vector<double> out;
    for (const auto& e : read_day_requests()) {
      out.insert(out.end(),
                 {e.arrival.value(), e.completion.value(),
                  e.response_time().value(), e.backlog.value(),
                  e.service_time.value(), e.energy.value()});
    }
    return out;
  }();
  return values;
}

/// `%.Pg` of one captured value per iteration. Arg 0 is write_double17
/// (the exact in-place kernel, P = 17 folded in), Arg 1 the std::to_chars
/// reference it matches; Args 2 and 3 are the same pair at P = 9, the CSV
/// trace's arrival precision, through write_double.
void BM_FormatDouble17(benchmark::State& state) {
  const auto& values = read_day_doubles();
  const bool reference = state.range(0) % 2 == 1;
  const int precision = state.range(0) < 2 ? 17 : 9;
  const char* name = reference            ? "std::to_chars"
                     : precision == 17 ? "write_double17"
                                       : "write_double";
  state.SetLabel(std::string(name) + " %." + std::to_string(precision) + "g");
  char buf[64];
  std::size_t i = 0;
  for (auto _ : state) {
    const double v = values[i];
    if (++i == values.size()) i = 0;
    char* end = nullptr;
    if (reference) {
      end = std::to_chars(buf, buf + sizeof buf, v,
                          std::chars_format::general, precision)
                .ptr;
    } else if (precision == 17) {
      end = write_double17(buf, v);
    } else {
      end = write_double(buf, v, precision);
    }
    benchmark::DoNotOptimize(buf);
    benchmark::DoNotOptimize(end);
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_FormatDouble17)->Arg(0)->Arg(1)->Arg(2)->Arg(3);

/// Discards output, counting the bytes.
class DiscardBuffer final : public std::streambuf {
 public:
  std::int64_t bytes = 0;

 protected:
  int overflow(int c) override {
    if (c != traits_type::eof()) ++bytes;
    return traits_type::not_eof(c);
  }
  std::streamsize xsputn(const char*, std::streamsize n) override {
    bytes += n;
    return n;
  }
};

/// One JSONL request line per iteration, into a discarding stream.
void BM_JsonlRequestLine(benchmark::State& state) {
  const auto& events = read_day_requests();
  DiscardBuffer sink;
  std::ostream out(&sink);
  JsonlTraceWriter writer(out);
  std::size_t i = 0;
  for (auto _ : state) {
    writer.on_request_complete(events[i]);
    if (++i == events.size()) i = 0;
    benchmark::DoNotOptimize(sink.bytes);
  }
  state.SetItemsProcessed(state.iterations());
  state.SetBytesProcessed(sink.bytes);
}
BENCHMARK(BM_JsonlRequestLine);

// ---- trace export --------------------------------------------------------

/// write_csv_trace of a wc98-light day of Arg requests into a discarding
/// stream; items are rows.
void BM_CsvTraceWrite(benchmark::State& state) {
  auto wc = worldcup98_light_config(42);
  wc.request_count = static_cast<std::size_t>(state.range(0));
  const Trace trace = generate_workload(wc).trace;
  DiscardBuffer sink;
  std::ostream out(&sink);
  for (auto _ : state) {
    write_csv_trace(trace, out);
    benchmark::DoNotOptimize(sink.bytes);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
  state.SetBytesProcessed(sink.bytes);
}
BENCHMARK(BM_CsvTraceWrite)->Arg(100'000);

}  // namespace

BENCHMARK_MAIN();
