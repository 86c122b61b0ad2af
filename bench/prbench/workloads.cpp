#include "workloads.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <istream>
#include <optional>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <streambuf>
#include <utility>

#include "core/registry.h"
#include "core/system.h"
#include "exp/scenario.h"
#include "exp/scenario_engine.h"
#include "fault/fault_plan.h"
#include "obs/jsonl_writer.h"
#include "obs/time_series.h"
#include "sim/fleet_sim.h"
#include "trace/csv_trace.h"
#include "trace/stream_reader.h"
#include "util/thread_pool.h"
#include "workload/synthetic.h"

namespace prbench {

namespace {

constexpr const char* kFig7Scenario = "scenarios/fig7_overall.ini";

/// FNV-1a over the simulated outputs. Doubles are hashed by bit pattern,
/// so any drift in a simulated value changes the digest.
class Digest {
 public:
  void bytes(const void* data, std::size_t n) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < n; ++i) {
      hash_ = (hash_ ^ p[i]) * 0x100000001b3ULL;
    }
  }
  void u64(std::uint64_t v) { bytes(&v, sizeof v); }
  void f64(double v) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof bits);
    u64(bits);
  }
  void str(std::string_view s) {
    u64(s.size());
    bytes(s.data(), s.size());
  }
  [[nodiscard]] std::uint64_t value() const { return hash_; }

 private:
  std::uint64_t hash_ = 0xcbf29ce484222325ULL;
};

void digest_report(Digest& d, const pr::SystemReport& report) {
  const pr::SimResult& s = report.sim;
  d.u64(s.user_requests);
  d.f64(s.energy_joules());
  d.f64(s.horizon.value());
  d.f64(s.response_time.mean());
  d.f64(s.response_time_sample.quantile(0.95));
  d.f64(s.response_time_sample.quantile(0.99));
  d.u64(s.total_transitions);
  d.u64(s.migrations);
  for (const auto& [name, value] : s.counters) {
    d.str(name);
    d.u64(value);
  }
  d.f64(report.array_afr);
  d.u64(report.worst_disk);
}

std::uint64_t counter(const pr::SimResult& r, const char* name) {
  const auto it = r.counters.find(name);
  return it == r.counters.end() ? 0 : it->second;
}

/// Every request a source produced is served, shed or lost.
void check_conservation(const pr::SimResult& r, std::uint64_t produced) {
  const std::uint64_t shed = counter(r, "control.shed_requests");
  const std::uint64_t lost = counter(r, "sim.requests_lost");
  if (r.user_requests + shed + lost != produced) {
    throw std::runtime_error(
        "request conservation failed: served " +
        std::to_string(r.user_requests) + " + shed " + std::to_string(shed) +
        " + lost " + std::to_string(lost) + " != produced " +
        std::to_string(produced));
  }
}

std::size_t scaled(std::size_t n, double scale) {
  return std::max<std::size_t>(
      1, static_cast<std::size_t>(std::llround(static_cast<double>(n) * scale)));
}

pr::PolicyFactory read_factory(const char* name) {
  return pr::policies::make(name, pr::ParamMap{{"cap", "40"}});
}

/// Run one simulation and score it. With a trace, the source, policy and
/// observer go through the forwarding decorators and the simulation and
/// scoring are spans; without one this is the plain library call.
pr::SystemReport simulate(const pr::SystemConfig& config,
                          const pr::FileSet& files, pr::RequestSource& source,
                          std::unique_ptr<pr::Policy> policy,
                          pr::SimObserver* observer,
                          const pr::FaultPlan* faults, RunTrace* trace,
                          SimTotals& totals) {
  pr::SimResult sim;
  std::uint64_t produced = 0;
  if (trace == nullptr) {
    sim = pr::run_simulation(config.sim, files, source, *policy, observer,
                             faults);
    produced = source.produced();
  } else {
    TimedSource timed_source(source, *trace);
    TimedPolicy timed_policy(std::move(policy), *trace);
    std::optional<TimedObserver> timed_observer;
    if (observer != nullptr) timed_observer.emplace(observer, *trace);
    {
      const SpanScope span(*trace, "sim.run");
      sim = pr::run_simulation(
          config.sim, files, timed_source, timed_policy,
          timed_observer ? &*timed_observer : nullptr, faults);
    }
    produced = timed_source.produced();
  }
  check_conservation(sim, produced);
  totals.add(sim, produced);
  if (trace == nullptr) {
    return pr::score(pr::PressModel{config.press}, std::move(sim));
  }
  const SpanScope span(*trace, "press.score");
  return pr::score(pr::PressModel{config.press}, std::move(sim));
}

double drain_ns_per_request(
    const std::vector<pr::SyntheticWorkloadConfig>& configs) {
  std::vector<pr::Request> batch(256);
  std::uint64_t requests = 0;
  std::int64_t ns = 0;
  for (const auto& config : configs) {
    pr::SyntheticSource source(config);
    const std::int64_t t0 = now_ns();
    while (const std::size_t n = source.next_batch(batch.data(), batch.size())) {
      requests += n;
    }
    ns += now_ns() - t0;
  }
  return requests == 0 ? 0.0
                       : static_cast<double>(ns) / static_cast<double>(requests);
}

/// Read-only istream buffer over a string the caller keeps alive.
class MemoryBuf final : public std::streambuf {
 public:
  explicit MemoryBuf(const std::string& text) {
    char* begin = const_cast<char*>(text.data());
    setg(begin, begin, begin + text.size());
  }
};

/// Discards output, counting the bytes.
class CountingBuf final : public std::streambuf {
 public:
  [[nodiscard]] std::uint64_t count() const { return count_; }

 protected:
  int overflow(int c) override {
    if (c != traits_type::eof()) ++count_;
    return traits_type::not_eof(c);
  }
  std::streamsize xsputn(const char*, std::streamsize n) override {
    count_ += static_cast<std::uint64_t>(n);
    return n;
  }

 private:
  std::uint64_t count_ = 0;
};

// ---- single-array replays (read_day, csv_stream, jsonl_telemetry,
// raid5_degraded) --------------------------------------------------------

enum class Input : std::uint8_t { kTrace, kCsv };

struct ReplaySpec {
  pr::SyntheticWorkloadConfig workload;
  int replays = 1;
  const char* policy = "read";
  Input input = Input::kTrace;
  /// TimeSeriesRecorder(60 s) + JsonlTraceWriter into a counting sink.
  bool telemetry = false;
  /// RAID-5, disk 0 failed at t = 0, never repaired, rebuild off.
  bool degraded = false;
};

class ReplayWorkload final : public Workload {
 public:
  explicit ReplayWorkload(ReplaySpec spec)
      : spec_(std::move(spec)), factory_(read_factory(spec_.policy)) {
    config_.sim.disk_count = 8;
    config_.sim.epoch = pr::Seconds{3600.0};
    if (spec_.degraded) {
      config_.sim.redundancy.kind = pr::RedundancyKind::kRaid5;
      config_.sim.redundancy.rebuild = false;
      plan_ = pr::FaultPlan::from_events(
          {{pr::Seconds{0.0}, 0, pr::FaultKind::kFail}});
    }
  }

  void setup() override {
    // Release the previous inputs first, so peak RSS holds one copy.
    files_ = pr::FileSet{};
    trace_ = pr::Trace{};
    csv_ = std::string{};
    pr::SyntheticWorkload generated = pr::generate_workload(spec_.workload);
    files_ = std::move(generated.files);
    if (spec_.input == Input::kCsv) {
      std::ostringstream out;
      pr::write_csv_trace(generated.trace, out);
      csv_ = std::move(out).str();
    } else {
      trace_ = std::move(generated.trace);
    }
  }

  RunResult run(unsigned) override { return replay_all(nullptr, plan()); }

  RunResult traced(Tracer&, RunTrace& root, std::int32_t) override {
    return replay_all(&root, plan());
  }

  void traced_extras(RunResult& traced, double traced_wall_s) override {
    if (!spec_.degraded) return;
    // The same configuration without the failure, through the same
    // decorators, so the difference is the cost of degraded reads alone.
    Tracer scratch;
    const std::int64_t t0 = now_ns();
    (void)replay_all(&scratch.new_run(), nullptr);
    const double fault_free_s = static_cast<double>(now_ns() - t0) * 1e-9;
    traced.layer.push_back(
        {"redundancy.degraded_ns_per_request",
         (traced_wall_s - fault_free_s) * 1e9 /
             static_cast<double>(traced.totals.requests),
         "ns"});
  }

  [[nodiscard]] double generate_ns_per_request() const override {
    return drain_ns_per_request({spec_.workload});
  }

 private:
  [[nodiscard]] const pr::FaultPlan* plan() const {
    return spec_.degraded ? &plan_ : nullptr;
  }

  RunResult replay_all(RunTrace* trace, const pr::FaultPlan* faults) {
    RunResult result;
    for (int i = 0; i < spec_.replays; ++i) {
      const std::uint64_t digest = replay(trace, faults, result.totals);
      if (i == 0) {
        result.digest = digest;
      } else if (digest != result.digest) {
        throw std::runtime_error("replay " + std::to_string(i) +
                                 " digest differs from replay 0");
      }
    }
    return result;
  }

  std::uint64_t replay(RunTrace* trace, const pr::FaultPlan* faults,
                       SimTotals& totals) {
    MemoryBuf csv_buf(csv_);
    std::istream csv_in(&csv_buf);
    std::unique_ptr<pr::RequestSource> source;
    if (spec_.input == Input::kCsv) {
      std::optional<SpanScope> span;
      if (trace != nullptr) span.emplace(*trace, "trace.open");
      source = std::make_unique<pr::CsvStreamSource>(csv_in, "csv:memory");
    } else {
      source = std::make_unique<pr::TraceSource>(trace_);
    }

    CountingBuf sink;
    std::ostream jsonl_out(&sink);
    std::optional<pr::TimeSeriesRecorder> recorder;
    std::optional<pr::JsonlTraceWriter> writer;
    pr::ObserverList observers;
    if (spec_.telemetry) {
      recorder.emplace(pr::Seconds{60.0});
      writer.emplace(jsonl_out);
      observers.add(*recorder);
      observers.add(*writer);
    }

    const pr::SystemReport report =
        simulate(config_, files_, *source, factory_(),
                 spec_.telemetry ? &observers : nullptr, faults, trace,
                 totals);
    Digest d;
    digest_report(d, report);
    if (spec_.telemetry) {
      d.u64(sink.count());
      d.u64(writer->lines_written());
      d.u64(recorder->window_count());
      totals.jsonl_bytes += sink.count();
    }
    return d.value();
  }

  ReplaySpec spec_;
  pr::PolicyFactory factory_;
  pr::SystemConfig config_;
  pr::FaultPlan plan_;
  pr::FileSet files_;
  pr::Trace trace_;
  std::string csv_;
};

// ---- fig7_grid ----------------------------------------------------------

/// The committed Fig. 7 scenario, run by the scenario engine in one
/// run_scenario call. The traced run re-drives the same cells through
/// public calls, because the engine builds its policies internally where no
/// decorator can reach them; the digest check proves the two produce
/// identical results. Until run_scenario offers a seam to wrap its policies
/// and observers, traced() mirrors the engine's variant derivation and cell
/// order, and an engine change there fails the digest check.
class Fig7Grid final : public Workload {
 public:
  explicit Fig7Grid(const WorkloadOptions& options) : options_(options) {}

  [[nodiscard]] unsigned threads() const override { return 2; }
  [[nodiscard]] const char* speedup_metric() const override {
    return "exp.speedup";
  }

  void setup() override {
    pr::ScenarioSpec spec = pr::load_scenario_file(kFig7Scenario);
    spec.threads = threads();
    spec.seeds = {options_.seed};
    if (spec.positioned || spec.fault.enabled || spec.fleet.enabled ||
        spec.redundancy.enabled || spec.control.enabled) {
      throw std::invalid_argument(
          "fig7_grid: the traced grid mirrors plain synthetic cells only");
    }
    for (pr::ScenarioWorkload& w : spec.workloads) {
      if (w.kind != "synthetic" || !w.loads.empty()) {
        throw std::invalid_argument(
            "fig7_grid: the traced grid mirrors synthetic workloads without "
            "a load axis only");
      }
      // Pinned explicitly: the conservation check needs the count.
      w.requests = scaled(
          w.requests.value_or(
              pr::preset_workload_config(w.preset, options_.seed)
                  .request_count),
          options_.scale);
    }
    pr::validate_scenario(spec);
    factories_.clear();
    for (const pr::ScenarioPolicy& p : spec.policies) {
      factories_.push_back(pr::policies::make(p.name, p.params));
    }
    spec_ = std::move(spec);
  }

  RunResult run(unsigned threads) override {
    pr::ScenarioSpec spec = spec_;
    spec.threads = threads;
    const pr::ScenarioResult grid = pr::run_scenario(spec);
    const std::size_t expected =
        spec_.workloads.size() * cells_per_workload();
    if (grid.cells.size() != expected) {
      throw std::runtime_error("fig7_grid: " +
                               std::to_string(grid.cells.size()) +
                               " cells, expected " + std::to_string(expected));
    }
    RunResult result;
    Digest d;
    for (const pr::ScenarioCell& cell : grid.cells) {
      const std::uint64_t produced = requests_of(cell.workload);
      check_conservation(cell.report.sim, produced);
      result.totals.add(cell.report.sim, produced);
      digest_report(d, cell.report);
    }
    result.digest = d.value();
    return result;
  }

  RunResult traced(Tracer& tracer, RunTrace& root,
                   std::int32_t parent) override {
    pr::ThreadPool pool(threads());
    std::vector<pr::SyntheticWorkload> variants(spec_.workloads.size());
    pool.parallel_for(variants.size(), [&](std::size_t i) {
      RunTrace& trace = tracer.new_run(&root, parent);
      const SpanScope span(trace, "workload.generate");
      variants[i] = pr::generate_workload(variant_config(spec_.workloads[i]));
    });

    // The engine's cell order: policy-major, then workload, epoch, disks.
    struct Cell {
      std::size_t policy;
      std::size_t variant;
      double epoch_s;
      std::size_t disks;
    };
    std::vector<Cell> cells;
    for (std::size_t p = 0; p < spec_.policies.size(); ++p) {
      for (std::size_t v = 0; v < variants.size(); ++v) {
        for (const double epoch_s : spec_.epochs) {
          for (const std::size_t disks : spec_.disks) {
            cells.push_back({p, v, epoch_s, disks});
          }
        }
      }
    }
    std::vector<pr::SystemReport> reports(cells.size());
    std::vector<SimTotals> totals(cells.size());
    pool.parallel_for(cells.size(), [&](std::size_t i) {
      const Cell& c = cells[i];
      RunTrace& trace = tracer.new_run(&root, parent);
      const SpanScope span(trace, "exp.cell");
      pr::SystemConfig config;
      config.sim.disk_count = c.disks;
      config.sim.epoch = pr::Seconds{c.epoch_s};
      const pr::SyntheticWorkload& variant = variants[c.variant];
      pr::TraceSource source(variant.trace);
      reports[i] = simulate(config, variant.files, source,
                            factories_[c.policy](), nullptr, nullptr, &trace,
                            totals[i]);
    });
    RunResult result;
    Digest d;
    for (std::size_t i = 0; i < cells.size(); ++i) {
      result.totals.merge(totals[i]);
      digest_report(d, reports[i]);
    }
    result.digest = d.value();
    return result;
  }

  [[nodiscard]] double generate_ns_per_request() const override {
    std::vector<pr::SyntheticWorkloadConfig> configs;
    for (const auto& w : spec_.workloads) configs.push_back(variant_config(w));
    return drain_ns_per_request(configs);
  }

 private:
  /// The generator config the scenario engine derives for a workload.
  [[nodiscard]] pr::SyntheticWorkloadConfig variant_config(
      const pr::ScenarioWorkload& w) const {
    pr::SyntheticWorkloadConfig config =
        pr::preset_workload_config(w.preset, options_.seed);
    if (w.files) config.file_count = *w.files;
    if (w.requests) config.request_count = *w.requests;
    if (w.zipf_alpha) config.zipf_alpha = *w.zipf_alpha;
    if (w.burstiness) config.burstiness = *w.burstiness;
    if (w.diurnal_depth) config.diurnal_depth = *w.diurnal_depth;
    return config;
  }

  [[nodiscard]] std::size_t cells_per_workload() const {
    return spec_.policies.size() * spec_.epochs.size() * spec_.disks.size();
  }

  /// The request count setup() pinned for the workload named `name`.
  [[nodiscard]] std::uint64_t requests_of(const std::string& name) const {
    for (const pr::ScenarioWorkload& w : spec_.workloads) {
      if (w.name == name) return *w.requests;
    }
    throw std::runtime_error("fig7_grid: cell for unknown workload " + name);
  }

  WorkloadOptions options_;
  pr::ScenarioSpec spec_;
  std::vector<pr::PolicyFactory> factories_;
};

// ---- fleet_day ----------------------------------------------------------

/// Set by a traced shard's policy factory and taken by the shard observer
/// factory: run_fleet builds both on the worker that runs the shard,
/// policy first, so the observer can find the shard's RunTrace.
thread_local RunTrace* t_shard_trace = nullptr;

class FleetDay final : public Workload {
 public:
  explicit FleetDay(const WorkloadOptions& options) : options_(options) {}

  [[nodiscard]] unsigned threads() const override { return 2; }
  [[nodiscard]] const char* speedup_metric() const override {
    return "fleet.speedup";
  }

  void setup() override {
    pr::FleetConfig fleet;
    fleet.shard = pr::SystemConfig{}.sim;
    fleet.shard.disk_count = 8;
    fleet.shard.epoch = pr::Seconds{600.0};
    fleet.shards = 125;
    fleet.threads = threads();
    fleet.workload = pr::worldcup98_light_config(options_.seed);
    fleet.workload.request_count = scaled(40'000'000, options_.scale);
    fleet.workload.file_count = 400;
    fleet.base_seed = options_.seed;
    fleet.policy = read_factory("read");
    fleet_ = std::move(fleet);
  }

  RunResult run(unsigned threads) override {
    pr::FleetConfig config = fleet_;
    config.threads = threads;
    return finish(std::move(pr::run_fleet(config).merged), nullptr);
  }

  RunResult traced(Tracer& tracer, RunTrace& root, std::int32_t) override {
    pr::FleetConfig config = fleet_;
    std::int32_t fleet_span = -1;
    config.policy = [&tracer, &root, &fleet_span, inner = fleet_.policy] {
      RunTrace& trace = tracer.new_run(&root, fleet_span);
      t_shard_trace = &trace;
      return std::make_unique<TimedPolicy>(inner(), trace);
    };
    config.shard_observer =
        [](std::uint32_t) -> std::unique_ptr<pr::SimObserver> {
      RunTrace* trace = std::exchange(t_shard_trace, nullptr);
      if (trace == nullptr) {
        throw std::logic_error("fleet_day: shard observer built before its "
                               "policy");
      }
      return std::make_unique<TimedObserver>(nullptr, *trace);
    };

    pr::FleetResult fleet;
    std::int64_t returned = 0;
    {
      const SpanScope span(root, "fleet.run");
      fleet_span = span.id();
      fleet = pr::run_fleet(config);
      returned = now_ns();
    }
    RunResult result = finish(std::move(fleet.merged), &root);

    std::int64_t last_end = 0;
    double longest = 0.0;
    double sum = 0.0;
    std::size_t shards = 0;
    for (const Span& s : tracer.merge()) {
      if (std::string_view(s.name) != "fleet.shard") continue;
      const auto ns = static_cast<double>(s.end_ns - s.start_ns);
      last_end = std::max(last_end, s.end_ns);
      longest = std::max(longest, ns);
      sum += ns;
      ++shards;
    }
    if (shards != fleet_.shards) {
      throw std::runtime_error("fleet_day: traced " + std::to_string(shards) +
                               " shard spans, expected " +
                               std::to_string(fleet_.shards));
    }
    result.layer.push_back(
        {"fleet.merge_ms", static_cast<double>(returned - last_end) * 1e-6,
         "ms"});
    result.layer.push_back({"fleet.shard_imbalance",
                            longest / (sum / static_cast<double>(shards)),
                            "ratio"});
    return result;
  }

  [[nodiscard]] double generate_ns_per_request() const override {
    // A sample of the shard streams: every shard draws from the same
    // generator with its own seed.
    std::vector<pr::SyntheticWorkloadConfig> configs;
    for (std::uint32_t s = 0; s < std::min<std::uint32_t>(4, fleet_.shards);
         ++s) {
      configs.push_back(pr::fleet_shard_workload(fleet_, s));
    }
    return drain_ns_per_request(configs);
  }

 private:
  RunResult finish(pr::SimResult merged, RunTrace* trace) {
    RunResult result;
    const std::uint64_t produced = fleet_.workload.request_count;
    check_conservation(merged, produced);
    result.totals.add(merged, produced);
    std::optional<SpanScope> span;
    if (trace != nullptr) span.emplace(*trace, "press.score");
    const pr::SystemReport report =
        pr::score(pr::PressModel{}, std::move(merged));
    span.reset();
    Digest d;
    digest_report(d, report);
    result.digest = d.value();
    return result;
  }

  WorkloadOptions options_;
  pr::FleetConfig fleet_;
};

pr::SyntheticWorkloadConfig scaled_config(pr::SyntheticWorkloadConfig config,
                                          double scale) {
  config.request_count = scaled(config.request_count, scale);
  return config;
}

}  // namespace

void SimTotals::add(const pr::SimResult& result, std::uint64_t produced) {
  requests += produced;
  idle_checks += counter(result, "sim.idle_checks");
  spin_downs += counter(result, "sim.spin_downs");
  spin_ups_to_serve += counter(result, "sim.spin_ups_to_serve");
  transitions += result.total_transitions;
  epochs += counter(result, "sim.epochs");
  migrations += result.migrations;
  reconstructed += counter(result, "sim.requests_reconstructed");
}

void SimTotals::merge(const SimTotals& other) {
  requests += other.requests;
  idle_checks += other.idle_checks;
  spin_downs += other.spin_downs;
  spin_ups_to_serve += other.spin_ups_to_serve;
  transitions += other.transitions;
  epochs += other.epochs;
  migrations += other.migrations;
  reconstructed += other.reconstructed;
  jsonl_bytes += other.jsonl_bytes;
}

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> kNames = {
      "fig7_grid",       "read_day",       "csv_stream",
      "jsonl_telemetry", "raid5_degraded", "fleet_day"};
  return kNames;
}

std::unique_ptr<Workload> make_workload(std::string_view name,
                                        const WorkloadOptions& options) {
  // Every replay is a whole day. The replay counts make one run last about
  // 2 s on a 4-vCPU Xeon VM, so a run measures at least five runs plus a
  // warm-up within the benchmark's time budget.
  const auto light =
      scaled_config(pr::worldcup98_light_config(options.seed), options.scale);
  if (name == "fig7_grid") return std::make_unique<Fig7Grid>(options);
  if (name == "read_day") {
    return std::make_unique<ReplayWorkload>(ReplaySpec{light, 10});
  }
  if (name == "csv_stream") {
    ReplaySpec spec{scaled_config(pr::worldcup98_heavy_config(options.seed),
                                  options.scale),
                    5, "online-read"};
    spec.input = Input::kCsv;
    return std::make_unique<ReplayWorkload>(spec);
  }
  if (name == "jsonl_telemetry") {
    ReplaySpec spec{light, 1};
    spec.telemetry = true;
    return std::make_unique<ReplayWorkload>(spec);
  }
  if (name == "raid5_degraded") {
    ReplaySpec spec{light, 8};
    spec.degraded = true;
    return std::make_unique<ReplayWorkload>(spec);
  }
  if (name == "fleet_day") return std::make_unique<FleetDay>(options);
  throw std::invalid_argument("unknown workload '" + std::string(name) + "'");
}

}  // namespace prbench
