// prbench — the benchmark program: one process runs one workload.
//
//   prbench --workload <name> --seconds S [--seed N] [--trace 0|1]
//           [--out DIR] [--commit SHA] [--date TEXT]
//   prbench --workload <name> --smoke [--seed N] [--trace 0|1] ...
//
// Phases, all timed in host time (simulated energy, AFR and response time
// are outputs that get checked, never performance metrics):
//   1. setup    — generate and materialize the inputs; repeated in bursts
//                 before the warm-up and after each of the first five
//                 timed runs, reporting the median burst (setup_s);
//   2. warm-up  — one discarded run;
//   3. timed    — untraced runs until there are at least five and their
//                 wall time adds up to --seconds. ns and CPU ns per request
//                 report the median run, with quartiles and n beside it;
//                 then peak RSS;
//   4. traced   — with --trace 1, one run through the span decorators
//                 (spans.h), one untraced run after it for the overhead,
//                 and the companion runs some layer metrics need
//                 (threads = 1 for speed-up, fault-free for RAID-5).
// --smoke runs every workload at 1/20 scale: no warm-up, one timed run.
// Every run checks request conservation and the digest of its simulated
// outputs against the first run's; a mismatch or exception fails the run.
//
// Output: `<workload> <metric> <value> <unit>` lines, <out>/<workload>.json
// (every metric with its samples and quartiles), the traced spans as CSV,
// and as the last stdout line one JSON object
// {"correct", "attempted", "failed", "metrics"} holding the end-to-end
// metrics (--trace 0) or the per-layer metrics (--trace 1) that
// BENCHMARK.json names.
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <exception>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "spans.h"
#include "util/fmt.h"
#include "util/parse.h"
#include "workloads.h"

namespace {

using prbench::now_ns;

constexpr int kWarmupRuns = 1;
constexpr int kMinTimedRuns = 5;
constexpr double kSmokeScale = 0.05;

struct Args {
  std::string workload;
  std::uint64_t seed = 42;
  std::optional<double> seconds;
  bool trace = false;
  bool smoke = false;
  std::string out = "build-prbench/results";
  std::string commit = "unknown";
  std::string date = "unknown";
};

[[noreturn]] void usage(const std::string& problem) {
  std::cerr << "prbench: " << problem
            << "\nusage: prbench --workload <name> (--seconds S | --smoke) "
               "[--seed N] [--trace 0|1] [--out DIR] [--commit SHA] "
               "[--date TEXT]\nworkloads:";
  for (const auto& name : prbench::workload_names()) std::cerr << ' ' << name;
  std::cerr << '\n';
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--smoke") {
      args.smoke = true;
      continue;
    }
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        args.workload = value;
      } else if (flag == "--seed") {
        args.seed = pr::parse_u64(value, flag);
      } else if (flag == "--seconds") {
        args.seconds = pr::parse_double(value, flag);
      } else if (flag == "--trace") {
        if (value != "0" && value != "1") usage("--trace takes 0 or 1");
        args.trace = value == "1";
      } else if (flag == "--out") {
        args.out = value;
      } else if (flag == "--commit") {
        args.commit = value;
      } else if (flag == "--date") {
        args.date = value;
      } else {
        usage("unknown flag " + flag);
      }
    } catch (const std::invalid_argument& e) {
      usage(e.what());
    }
  }
  const auto& names = prbench::workload_names();
  if (std::find(names.begin(), names.end(), args.workload) == names.end()) {
    usage("unknown or missing --workload '" + args.workload + "'");
  }
  if (args.smoke == args.seconds.has_value()) {
    usage("give exactly one of --seconds and --smoke");
  }
  if (args.seconds && !(*args.seconds >= 0.0)) usage("--seconds must be >= 0");
  return args;
}

double peak_rss_mib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
}

/// First and third quartile as Python's statistics.quantiles(v, n=4)
/// computes them (the 'exclusive' method), so compare.py agrees.
std::pair<double, double> quartiles(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const auto ld = static_cast<long>(v.size());
  if (ld < 2) return {v.front(), v.front()};
  const long m = ld + 1;
  const auto at = [&](long i) {
    long j = i * m / 4;
    j = std::clamp(j, 1L, ld - 1);
    const long delta = i * m - j * 4;
    return (v[static_cast<std::size_t>(j - 1)] * static_cast<double>(4 - delta) +
            v[static_cast<std::size_t>(j)] * static_cast<double>(delta)) /
           4.0;
  };
  return {at(1), at(3)};
}

std::string hex(std::uint64_t v) {
  static const char* kDigits = "0123456789abcdef";
  std::string out(16, '0');
  for (int i = 15; i >= 0; --i, v >>= 4) {
    out[static_cast<std::size_t>(i)] = kDigits[v & 0xF];
  }
  return out;
}

std::string quoted(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string num(double v) { return pr::format_double(v, 17); }

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::vector<double> samples;  // one per timed run; empty for single values
};

/// The metrics BENCHMARK.json names, in its order.
const std::vector<std::string> kEndToEnd = {
    "ns_per_request", "cpu_ns_per_request", "peak_rss_mb", "setup_s"};
const std::vector<std::string> kPerLayer = {
    "trace.ingest_ns_per_request", "trace.ingest_share",
    "workload.generate_ns_per_request", "policy.request_ns_per_request",
    "policy.epoch_ns_per_request", "policy.initialize_ns_per_request",
    "policy.epochs", "policy.migrations", "sim.self_ns_per_request",
    "sim.idle_checks", "sim.spin_downs", "sim.spin_ups_to_serve",
    "sim.transitions", "redundancy.reconstructed_share",
    "obs.events_per_request", "obs.jsonl_bytes_per_request", "press.score_ms",
    "exp.parallel_efficiency", "bench.trace_overhead_frac",
    "bench.span_clock_ns"};

class Runner {
 public:
  explicit Runner(Args args) : args_(std::move(args)) {}

  int main() {
    prbench::WorkloadOptions options;
    options.seed = args_.seed;
    options.scale = args_.smoke ? kSmokeScale : 1.0;
    auto workload = prbench::make_workload(args_.workload, options);
    const int warmup = args_.smoke ? 0 : kWarmupRuns;
    const int min_runs = args_.smoke ? 1 : kMinTimedRuns;
    const double seconds = args_.seconds.value_or(0.0);

    // 1. setup. Host speed drifts in phases of seconds, so set-up is
    // timed in short bursts spread over the process: one before the
    // warm-up and one after each of the first timed runs. setup_s is the
    // median burst.
    std::vector<double> setup_bursts;
    const auto setup_burst = [&] {
      std::vector<double> times;
      for (double spent = 0.0;
           times.empty() || (spent < 0.05 && times.size() < 1000);) {
        const std::int64_t t0 = now_ns();
        workload->setup();
        times.push_back(static_cast<double>(now_ns() - t0) * 1e-9);
        spent += times.back();
      }
      setup_bursts.push_back(median(times));
    };
    setup_burst();

    // 2-3. warm-up, then timed runs.
    for (int i = 0; i < warmup; ++i) (void)timed_run(*workload);
    std::vector<double> wall;
    std::vector<double> efficiency;
    std::vector<double> ns_per_request;
    std::vector<double> cpu_ns_per_request;
    double requests = 0.0;
    double measured_s = 0.0;
    while (static_cast<int>(wall.size()) < min_runs || measured_s < seconds) {
      const auto run = timed_run(*workload);
      if (!run) {
        if (failed_ >= 3) break;  // broken, not noisy: stop early
        continue;
      }
      if (static_cast<int>(setup_bursts.size()) <= min_runs) setup_burst();
      measured_s += run->wall_s;
      requests = static_cast<double>(run->requests);
      wall.push_back(run->wall_s);
      efficiency.push_back(run->cpu_s / (run->wall_s * workload->threads()));
      ns_per_request.push_back(run->wall_s * 1e9 / requests);
      cpu_ns_per_request.push_back(run->cpu_s * 1e9 / requests);
    }
    if (wall.empty()) {
      std::cerr << "prbench: every timed run of " << args_.workload
                << " failed\n";
      return 1;
    }
    const double rss = peak_rss_mib();

    add_samples("ns_per_request", ns_per_request, "ns");
    add_samples("cpu_ns_per_request", cpu_ns_per_request, "ns");
    add("peak_rss_mb", rss, "MiB");
    add_samples("setup_s", setup_bursts, "s");
    add("requests_per_run", requests, "count");
    add_samples("run_wall_s", wall, "s");
    reps_ = wall.size();

    // 4. traced run.
    if (args_.trace) {
      traced(*workload, wall.back(), median(wall), median(efficiency));
    }

    const double error_rate =
        static_cast<double>(failed_) / static_cast<double>(attempted_);
    add("error_rate", error_rate, "fraction");
    print_and_write();
    return 0;
  }

 private:
  struct Timed {
    double wall_s = 0.0;
    double cpu_s = 0.0;
    std::uint64_t requests = 0;
  };

  /// A run that throws or whose digest differs from the first run's
  /// counts as failed.
  bool accept(const prbench::RunResult& result, const char* what) {
    if (!digest_) {
      digest_ = result.digest;
      return true;
    }
    if (*digest_ == result.digest) return true;
    fail(std::string(what) + " digest " + hex(result.digest) +
         " differs from " + hex(*digest_));
    return false;
  }

  void fail(const std::string& message) {
    ++failed_;
    std::cerr << "prbench: " << args_.workload << ": " << message << '\n';
    if (errors_.size() < 10) errors_.push_back(message);
  }

  std::optional<Timed> timed_run(prbench::Workload& workload,
                                 unsigned threads = 0) {
    ++attempted_;
    try {
      const double c0 = prbench::process_cpu_s();
      const std::int64_t t0 = now_ns();
      const prbench::RunResult result =
          workload.run(threads == 0 ? workload.threads() : threads);
      const double wall = static_cast<double>(now_ns() - t0) * 1e-9;
      const double cpu = prbench::process_cpu_s() - c0;
      if (!accept(result, threads == 0 ? "run" : "threads=1 run")) {
        return std::nullopt;
      }
      return Timed{wall, cpu, result.totals.requests};
    } catch (const std::exception& e) {
      fail(e.what());
      return std::nullopt;
    }
  }

  /// `last_wall_s` is the last timed run; `untraced_wall_s` and
  /// `efficiency` are the medians of the timed runs.
  void traced(prbench::Workload& workload, double last_wall_s,
              double untraced_wall_s, double efficiency) {
    ++attempted_;
    prbench::Tracer tracer;
    prbench::RunResult result;
    double wall_s = 0.0;
    try {
      prbench::RunTrace& root = tracer.new_run();
      const std::int64_t t0 = now_ns();
      {
        const prbench::SpanScope span(root, "bench.traced");
        result = workload.traced(tracer, root, span.id());
      }
      wall_s = static_cast<double>(now_ns() - t0) * 1e-9;
      if (!accept(result, "traced run")) return;
    } catch (const std::exception& e) {
      fail(std::string("traced run: ") + e.what());
      return;
    }
    // Host speed drifts by more than the tracing costs within seconds, so
    // the traced run is compared with the untraced runs on either side of
    // it, not with runs made earlier.
    const auto after = timed_run(workload);
    if (!after) return;
    const double overhead = 2.0 * wall_s / (last_wall_s + after->wall_s) - 1.0;
    try {
      workload.traced_extras(result, wall_s);
    } catch (const std::exception& e) {
      fail(std::string("traced extras: ") + e.what());
      return;
    }

    const double requests = static_cast<double>(result.totals.requests);
    const std::vector<prbench::Span> spans = tracer.merge();
    const std::vector<std::int64_t> self = prbench::Tracer::self_times(spans);
    std::map<std::string, double> self_by_name;
    for (std::size_t i = 0; i < spans.size(); ++i) {
      self_by_name[spans[i].name] += static_cast<double>(self[i]);
    }
    const auto self_of = [&](const char* name) {
      const auto it = self_by_name.find(name);
      return it == self_by_name.end() ? 0.0 : it->second;
    };
    double obs_spans = 0.0;
    for (const auto& [name, ns] : self_by_name) {
      if (name.rfind("obs.", 0) == 0) obs_spans += ns;
    }
    using prbench::Hook;
    const auto hooks = [&](std::initializer_list<Hook> list) {
      double ns = 0.0;
      for (const Hook h : list) ns += tracer.hook_ns(h);
      return ns;
    };
    const double generate = workload.generate_ns_per_request();
    const double ingest = hooks({Hook::kNextBatch});
    const double policy_request = hooks({Hook::kRoute, Hook::kStripe,
                                         Hook::kAfterServe,
                                         Hook::kAllowSpinDown});
    const double obs_sampled = hooks(
        {Hook::kObsRequestComplete, Hook::kObsSpeedTransition,
         Hook::kObsDiskStateChange, Hook::kObsRequestDegraded,
         Hook::kObsStripeReconstruct, Hook::kObsBackgroundCopy});

    // Layer self times. sim.self is what the run spans hold beyond every
    // measured child, so the layers add up to the traced thread time.
    std::map<std::string, double> layers;
    layers["trace"] = ingest + self_of("trace.open");
    layers["workload"] = self_of("workload.generate");
    layers["policy"] = policy_request + self_of("policy.on_epoch") +
                       self_of("policy.on_control") +
                       self_of("policy.initialize");
    layers["sim"] = self_of("sim.run") + self_of("fleet.shard") - ingest -
                    policy_request - obs_sampled;
    layers["obs"] = obs_spans + obs_sampled;
    layers["press"] = self_of("press.score");
    layers["exp"] = self_of("exp.cell");
    layers["fleet"] = self_of("fleet.run");
    layers["bench"] = self_of("bench.traced");
    double layer_sum = 0.0;
    for (const auto& [name, ns] : layers) layer_sum += ns;
    double span_sum = 0.0;
    for (const std::int64_t s : self) span_sum += static_cast<double>(s);
    layer_sum_ns_ = layer_sum;
    span_sum_ns_ = span_sum;
    traced_wall_ns_ = wall_s * 1e9;
    layers_ = layers;

    const prbench::SimTotals& t = result.totals;
    const double per_1k = 1e3 / requests;
    // Shard sources live inside run_fleet, out of the decorators' reach:
    // there ingest is generation, so it is reported at the outside drain
    // rate and stays inside sim.self rather than being subtracted from a
    // span it was not measured in.
    const bool ingest_estimated =
        tracer.hook_calls(Hook::kNextBatch) == 0 && self_of("fleet.shard") > 0;
    const double ingest_ns =
        ingest_estimated ? generate * requests : layers["trace"];
    add("trace.ingest_ns_per_request", ingest_ns / requests, "ns");
    add("trace.ingest_share", ingest_ns / layer_sum, "fraction");
    add("workload.generate_ns_per_request", generate, "ns");
    add("policy.request_ns_per_request", policy_request / requests, "ns");
    add("policy.epoch_ns_per_request",
        (self_of("policy.on_epoch") + self_of("policy.on_control")) / requests,
        "ns");
    add("policy.initialize_ns_per_request",
        self_of("policy.initialize") / requests, "ns");
    add("policy.epochs", static_cast<double>(t.epochs), "count");
    add("policy.migrations", static_cast<double>(t.migrations), "count");
    add("sim.self_ns_per_request", layers["sim"] / requests, "ns");
    add("sim.idle_checks", static_cast<double>(t.idle_checks) * per_1k,
        "per_1k_requests");
    add("sim.spin_downs", static_cast<double>(t.spin_downs) * per_1k,
        "per_1k_requests");
    add("sim.spin_ups_to_serve",
        static_cast<double>(t.spin_ups_to_serve) * per_1k, "per_1k_requests");
    add("sim.transitions", static_cast<double>(t.transitions) * per_1k,
        "per_1k_requests");
    add("redundancy.reconstructed_share",
        static_cast<double>(t.reconstructed) / requests, "fraction");
    add("obs.events_per_request",
        static_cast<double>(tracer.events()) / requests, "count");
    add("obs.jsonl_bytes_per_request",
        static_cast<double>(t.jsonl_bytes) / requests, "bytes");
    add("press.score_ms", layers["press"] * 1e-6, "ms");
    add("exp.parallel_efficiency", efficiency, "fraction");
    add("bench.trace_overhead_frac", overhead, "fraction");
    add("bench.span_clock_ns", tracer.span_clock_ns(), "ns");

    // Workload-specific layer metrics (not defined on every workload, so
    // BENCHMARK.json does not list them).
    if (tracer.events() > 0) {
      add("obs.callback_ns_per_request", layers["obs"] / requests, "ns");
    }
    for (const prbench::LayerMetric& m : result.layer) {
      add(m.name, m.value, m.unit);
    }
    if (ingest_estimated) add("trace.ingest_estimated", 1.0, "flag");
    if (const char* speedup = workload.speedup_metric()) {
      if (const auto serial = timed_run(workload, 1)) {
        add(speedup, serial->wall_s / untraced_wall_s, "ratio");
      }
    }

    std::filesystem::create_directories(args_.out);
    const std::string base = args_.out + "/" + args_.workload;
    if (!tracer.write_csv(base + ".spans.csv", base + ".hooks.csv")) {
      fail("cannot write spans under " + args_.out);
    }
  }

  void add(const std::string& name, double value, const std::string& unit) {
    if (!std::isfinite(value)) {  // JSON has no NaN or infinity
      fail("metric " + name + " is not finite");
      value = 0.0;
    }
    metrics_.push_back({name, value, unit, {}});
  }

  /// A timing over the timed runs, reported as their median.
  void add_samples(const std::string& name, std::vector<double> samples,
                   const std::string& unit) {
    const double value = median(samples);
    metrics_.push_back({name, value, unit, std::move(samples)});
  }

  [[nodiscard]] const Metric* find(const std::string& name) const {
    for (const Metric& m : metrics_) {
      if (m.name == name) return &m;
    }
    return nullptr;
  }

  void print_and_write() {
    const std::string& w = args_.workload;
    for (const Metric& m : metrics_) {
      std::cout << w << ' ' << m.name << ' ' << num(m.value) << ' ' << m.unit
                << '\n';
      if (m.samples.size() > 1) {
        const auto [p25, p75] = quartiles(m.samples);
        std::cout << w << ' ' << m.name << ".p25 " << num(p25) << ' '
                  << m.unit << '\n'
                  << w << ' ' << m.name << ".p75 " << num(p75) << ' '
                  << m.unit << '\n'
                  << w << ' ' << m.name << ".n " << m.samples.size()
                  << " count\n";
      }
    }
    std::cout << w << " sim_digest " << (digest_ ? hex(*digest_) : "none")
              << " hex\n";

    std::filesystem::create_directories(args_.out);
    std::ofstream json(args_.out + "/" + w + ".json");
    json << results_json() << '\n';
    if (!json.good()) {
      std::cerr << "prbench: cannot write " << args_.out << "/" << w
                << ".json\n";
    }

    // The contract line: exactly the metrics BENCHMARK.json names.
    std::string line = "{\"correct\": ";
    line += failed_ == 0 ? "true" : "false";
    line += ", \"attempted\": " + std::to_string(attempted_);
    line += ", \"failed\": " + std::to_string(failed_);
    line += ", \"metrics\": {";
    bool first = true;
    for (const std::string& name : args_.trace ? kPerLayer : kEndToEnd) {
      const Metric* m = find(name);
      if (m == nullptr) continue;  // a failed traced run: correct is false
      line += first ? "" : ", ";
      first = false;
      line += quoted(name) + ": {\"value\": " + num(m->value) +
              ", \"unit\": " + quoted(m->unit) + "}";
    }
    line += "}}";
    std::cout << line << std::endl;
  }

  [[nodiscard]] std::string results_json() const {
    std::string j = "{\"workload\": " + quoted(args_.workload);
    j += ", \"seed\": " + std::to_string(args_.seed);
    j += std::string(", \"smoke\": ") + (args_.smoke ? "true" : "false");
    j += ", \"manifest\": {\"commit\": " + quoted(args_.commit) +
         ", \"date\": " + quoted(args_.date) +
         ", \"build_type\": " + quoted(PRBENCH_BUILD_TYPE) +
         ", \"compiler\": " + quoted(PRBENCH_COMPILER) +
         ", \"nproc\": " + std::to_string(std::thread::hardware_concurrency()) +
         ", \"reps\": " + std::to_string(reps_) +
         ", \"seconds\": " + num(args_.seconds.value_or(0.0)) + "}";
    j += ", \"sim_digest\": " + quoted(digest_ ? hex(*digest_) : "none");
    j += std::string(", \"correct\": ") + (failed_ == 0 ? "true" : "false");
    j += ", \"attempted\": " + std::to_string(attempted_);
    j += ", \"failed\": " + std::to_string(failed_);
    j += ", \"errors\": [";
    for (std::size_t i = 0; i < errors_.size(); ++i) {
      j += (i ? ", " : "") + quoted(errors_[i]);
    }
    j += "], \"metrics\": {";
    for (std::size_t i = 0; i < metrics_.size(); ++i) {
      const Metric& m = metrics_[i];
      j += (i ? ", " : "") + quoted(m.name) + ": {\"value\": " + num(m.value) +
           ", \"unit\": " + quoted(m.unit);
      if (!m.samples.empty()) {
        const auto [p25, p75] = quartiles(m.samples);
        j += ", \"p25\": " + num(p25) + ", \"p75\": " + num(p75) +
             ", \"n\": " + std::to_string(m.samples.size()) +
             ", \"samples\": [";
        for (std::size_t s = 0; s < m.samples.size(); ++s) {
          j += (s ? ", " : "") + num(m.samples[s]);
        }
        j += "]";
      }
      j += "}";
    }
    j += "}";
    if (!layers_.empty()) {
      j += ", \"layers_ns\": {";
      bool first = true;
      for (const auto& [name, ns] : layers_) {
        j += (first ? "" : ", ") + quoted(name) + ": " + num(ns);
        first = false;
      }
      j += "}, \"layer_sum_ns\": " + num(layer_sum_ns_) +
           ", \"span_self_sum_ns\": " + num(span_sum_ns_) +
           ", \"traced_wall_ns\": " + num(traced_wall_ns_);
    }
    return j + "}";
  }

  Args args_;
  std::vector<Metric> metrics_;
  std::optional<std::uint64_t> digest_;
  int attempted_ = 0;
  int failed_ = 0;
  std::vector<std::string> errors_;
  std::size_t reps_ = 0;
  std::map<std::string, double> layers_;
  double layer_sum_ns_ = 0.0;
  double span_sum_ns_ = 0.0;
  double traced_wall_ns_ = 0.0;
};

}  // namespace

int main(int argc, char** argv) {
  try {
    return Runner(parse_args(argc, argv)).main();
  } catch (const std::exception& e) {
    std::cerr << "prbench: " << e.what() << '\n';
    return 1;
  }
}
