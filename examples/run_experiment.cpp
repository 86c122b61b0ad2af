// run_experiment — command-line driver exposing the library without
// writing code. Two modes:
//
//   Single run (legacy flags): pick a policy and knobs, run one
//   simulation, print the full report (optionally per-disk breakdown).
//
//     $ ./run_experiment --policy read --disks 8 --load 1.0 --cap 40
//     $ ./run_experiment --policy maid --disks 12 --cache-disks 3
//     $ ./run_experiment --policy striped-read --param stripe_unit=1048576
//     $ ./run_experiment --policy read --trace jsonl:mytrace.jl
//     $ ./run_experiment --emit-trace | ./run_experiment --source - --files 4079
//
//   Scenario sweep: run a declarative grid from a config file
//   (grammar: EXPERIMENTS.md "Scenario files"; examples: scenarios/).
//
//     $ ./run_experiment --config scenarios/fig7_overall.ini
//     $ ./run_experiment --config scenarios/smoke.ini --csv out.csv
//
// All policy construction flows through pr::policies — `--policy` accepts
// any registry name (or alias), `--param key=value` reaches any registered
// knob, and `--help` prints the live registry. Numeric flags are parsed
// strictly: trailing garbage ("--disks 8x") and negative values are
// errors naming the flag, not silent truncation.
#include <filesystem>
#include <iostream>
#include <memory>
#include <optional>
#include <string>
#include <system_error>

#include "core/registry.h"
#include "core/session.h"
#include "disk/geometry.h"
#include "exp/scenario.h"
#include "exp/scenario_engine.h"
#include "exp/scenario_report.h"
#include "trace/csv_trace.h"
#include "trace/trace_reader.h"
#include "trace/trace_stats.h"
#include "util/parse.h"
#include "util/table.h"
#include "workload/synthetic.h"

namespace {

using namespace pr;

struct Options {
  std::string policy = "read";
  std::size_t disks = 8;
  double load = 1.0;
  std::size_t requests = 1'480'081;
  std::size_t files = 4'079;
  double epoch_s = 3600.0;
  // Policy knobs: only explicitly-set flags reach the ParamMap, so
  // registry defaults stay in charge otherwise.
  std::optional<std::string> cap;
  std::optional<std::string> threshold;
  std::optional<std::string> cache_disks;
  ParamMap params;  // --param key=value, forwarded verbatim
  std::uint64_t seed = 42;
  std::string trace_file;
  std::string source;       // streaming trace spec ('-' = stdin)
  bool emit_trace = false;  // stream the synthetic workload to stdout
  bool positioned = false;
  bool detail = false;
  // Scenario mode.
  std::string config_file;
  std::optional<unsigned> threads;
  std::optional<unsigned> fleet_threads;
  std::string csv_path;
  std::string json_path;
};

void print_help() {
  std::cout <<
      "usage: run_experiment [flags]\n"
      "\n"
      "single run:\n"
      "  --policy NAME        energy-management policy      (default read)\n"
      "  --disks N            array size                    (default 8)\n"
      "  --load X             arrival-rate multiplier       (default 1.0)\n"
      "  --requests N         synthetic request count       (default 1480081)\n"
      "  --files N            synthetic file count          (default 4079)\n"
      "  --epoch SECONDS      epoch length P                (default 3600)\n"
      "  --cap S              READ transition budget\n"
      "  --threshold SECONDS  initial idleness threshold\n"
      "  --cache-disks N      MAID cache disk count\n"
      "  --param KEY=VALUE    any registry knob (repeatable)\n"
      "  --seed N             workload seed                 (default 42)\n"
      "  --trace SPEC         materialize a trace instead of synthesizing\n"
      "                       ([format:]path; formats: clf, csv, jsonl, wc98)\n"
      "  --source SPEC        stream a trace through a bounded buffer\n"
      "                       ('-' = CSV on stdin; needs --files for the\n"
      "                       file universe, ids must be < N)\n"
      "  --emit-trace         stream the synthetic workload as CSV to\n"
      "                       stdout and exit (pairs with --source -)\n"
      "  --csv FILE           also write the run as a one-cell scenario CSV\n"
      "  --positioned         enable seek-curve positional I/O\n"
      "  --detail             per-disk ESRRA/PRESS table\n"
      "\n"
      "scenario sweep:\n"
      "  --config FILE        run a declarative scenario (see scenarios/)\n"
      "  --threads N          sweep worker threads (0 = hardware)\n"
      "  --fleet-threads N    override [fleet] threads (never changes\n"
      "                       result bytes; 0 = hardware)\n"
      "  --csv FILE           cell CSV (default results/<scenario>.csv)\n"
      "  --json FILE          cell JSON (off by default)\n"
      "\n"
      "policies (pr::policies registry):\n";
  for (const std::string& name : pr::policies::names()) {
    std::string params_line;
    for (const auto& info : pr::policies::param_info(name)) {
      params_line += params_line.empty() ? "" : ", ";
      params_line += info.name;
    }
    std::cout << "  " << name;
    for (std::size_t pad = name.size(); pad < 18; ++pad) std::cout << ' ';
    std::cout << (params_line.empty() ? "(no knobs)" : "knobs: " + params_line)
              << "\n";
  }
  std::cout << "aliases:";
  for (const auto& [alias, target] : pr::policies::aliases()) {
    std::cout << " " << alias << "=" << target;
  }
  std::cout << "\n";
}

bool parse(int argc, char** argv, Options& opt) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) throw std::runtime_error("missing value for " + flag);
      return argv[++i];
    };
    if (flag == "--policy") opt.policy = next();
    else if (flag == "--disks") opt.disks = parse_size(next(), flag);
    else if (flag == "--load") opt.load = parse_double(next(), flag);
    else if (flag == "--requests") opt.requests = parse_size(next(), flag);
    else if (flag == "--files") opt.files = parse_size(next(), flag);
    else if (flag == "--epoch") opt.epoch_s = parse_double(next(), flag);
    else if (flag == "--cap") {
      opt.cap = next();
      (void)parse_u64(*opt.cap, flag);
    } else if (flag == "--threshold") {
      opt.threshold = next();
      (void)parse_double(*opt.threshold, flag);
    } else if (flag == "--cache-disks") {
      opt.cache_disks = next();
      (void)parse_size(*opt.cache_disks, flag);
    } else if (flag == "--param") {
      const std::string kv = next();
      const std::size_t eq = kv.find('=');
      if (eq == std::string::npos || eq == 0) {
        throw std::runtime_error("--param expects KEY=VALUE, got '" + kv + "'");
      }
      opt.params.set(kv.substr(0, eq), kv.substr(eq + 1));
    }
    else if (flag == "--seed") opt.seed = parse_u64(next(), flag);
    else if (flag == "--trace") opt.trace_file = next();
    else if (flag == "--source") opt.source = next();
    else if (flag == "--emit-trace") opt.emit_trace = true;
    else if (flag == "--positioned") opt.positioned = true;
    else if (flag == "--detail") opt.detail = true;
    else if (flag == "--config") opt.config_file = next();
    else if (flag == "--threads") opt.threads = parse_u32(next(), flag);
    else if (flag == "--fleet-threads")
      opt.fleet_threads = parse_u32(next(), flag);
    else if (flag == "--csv") opt.csv_path = next();
    else if (flag == "--json") opt.json_path = next();
    else if (flag == "--help" || flag == "-h") return false;
    else throw std::runtime_error("unknown flag " + flag + " (see --help)");
  }
  if (opt.disks == 0) throw std::runtime_error("--disks must be > 0");
  if (!(opt.load > 0.0)) throw std::runtime_error("--load must be > 0");
  if (!(opt.epoch_s > 0.0)) throw std::runtime_error("--epoch must be > 0");
  if (!opt.trace_file.empty() && !opt.source.empty()) {
    throw std::runtime_error("--trace and --source are mutually exclusive");
  }
  return true;
}

/// Fold the convenience flags into the ParamMap, keeping only knobs the
/// chosen policy actually declares (the legacy CLI silently ignored e.g.
/// --cap under MAID; we keep that behaviour but say so).
ParamMap policy_params(const Options& opt) {
  ParamMap params = opt.params;
  auto add = [&](const char* key, const std::optional<std::string>& value) {
    if (value && !params.contains(key)) params.set(key, *value);
  };
  add("cap", opt.cap);
  add("threshold", opt.threshold);
  add("cache_disks", opt.cache_disks);

  const std::vector<std::string> known =
      pr::policies::param_names(opt.policy);
  ParamMap filtered;
  for (const std::string& key : params.keys()) {
    bool supported = false;
    for (const std::string& k : known) supported = supported || k == key;
    if (supported) {
      filtered.set(key, params.raw(key));
    } else {
      std::cerr << "note: policy '" << opt.policy << "' has no knob '" << key
                << "'; ignored\n";
    }
  }
  return filtered;
}

/// The synthetic workload config the single-run flags describe.
SyntheticWorkloadConfig synthetic_config(const Options& opt) {
  auto wc = worldcup98_light_config(opt.seed);
  wc.load_factor = opt.load;
  wc.file_count = opt.files;
  wc.request_count = opt.requests;
  return wc;
}

/// `--files N` uniform universe for single-pass stdin sources, where no
/// stats prepass is possible: N files of the from_trace_stats default
/// size, rate 0 (policies learn popularity from the stream itself).
FileSet uniform_fileset(std::size_t count) {
  std::vector<FileInfo> infos(count);
  for (std::size_t i = 0; i < count; ++i) {
    infos[i].id = static_cast<FileId>(i);
    infos[i].size = 4 * kKiB;
  }
  return FileSet(std::move(infos));
}

/// --emit-trace: pull the synthetic generator through the streaming CSV
/// writer — no Trace is ever materialized, so this scales to traces
/// larger than memory.
int emit_trace(const Options& opt) {
  SyntheticSource source(synthetic_config(opt));
  write_csv_trace(source, std::cout);
  if (!std::cout) throw std::runtime_error("--emit-trace: write failed");
  return 0;
}

int run_single(const Options& opt) {
  SystemConfig config;
  config.sim.disk_count = opt.disks;
  config.sim.epoch = Seconds{opt.epoch_s};
  if (opt.positioned) config.sim.seek_curve = cheetah_seek_curve();
  auto policy = pr::policies::make(opt.policy, policy_params(opt))();

  FileSet files;
  Trace trace;
  SystemReport report;
  std::string workload_label;
  if (!opt.source.empty()) {
    workload_label = opt.source;
    if (pr::trace::resolve_spec(opt.source).path == "-") {
      files = uniform_fileset(opt.files);
    } else {
      // Seekable sources afford a stats prepass: stream once through the
      // accumulator to measure the file universe, then re-open to run.
      auto probe = pr::trace::open(opt.source);
      TraceStatsAccumulator stats;
      Request r;
      while (probe->next(r)) stats.add(r);
      files = FileSet::from_trace_stats(stats.finalize());
    }
    auto source = pr::trace::open(opt.source);
    std::cout << "streaming " << source->describe() << " over "
              << files.size() << " files\n";
    report = SimulationSession(config)
                 .with_source(files, *source)
                 .with_policy(*policy)
                 .run();
    std::cout << "consumed " << source->produced() << " requests\n";
  } else {
    if (!opt.trace_file.empty()) {
      workload_label = opt.trace_file;
      trace = pr::trace::open_trace(opt.trace_file);
      files = FileSet::from_trace_stats(compute_trace_stats(trace));
      std::cout << "loaded " << trace.size() << " requests over "
                << files.size() << " files from " << opt.trace_file << "\n";
    } else {
      workload_label = "synthetic";
      auto workload = generate_workload(synthetic_config(opt));
      files = std::move(workload.files);
      trace = std::move(workload.trace);
      std::cout << "synthesised " << trace.size() << " requests over "
                << files.size() << " files (load x" << opt.load << ")\n";
    }
    report = SimulationSession(config)
                 .with_workload(files, trace)
                 .with_policy(*policy)
                 .run();
  }
  std::cout << "\n" << report.summary();

  if (!opt.csv_path.empty()) {
    // One-cell scenario export so streaming/smoke tooling can assert the
    // same CSV schema the sweep engine emits.
    ScenarioResult one;
    one.scenario = "single";
    ScenarioCell cell;
    cell.policy = opt.policy;
    cell.workload = workload_label;
    cell.load = opt.load;
    cell.seed = opt.seed;
    cell.epoch_s = opt.epoch_s;
    cell.disks = opt.disks;
    cell.report = report;
    one.cells.push_back(std::move(cell));
    write_scenario_csv_file(one, opt.csv_path);
    std::cout << "wrote " << opt.csv_path << "\n";
  }

  if (opt.detail) {
    AsciiTable detail("per-disk ESRRA / PRESS breakdown");
    detail.set_header({"disk", "temp", "util", "trans/day", "AFR"});
    for (std::size_t d = 0; d < report.sim.telemetry.size(); ++d) {
      const auto& t = report.sim.telemetry[d];
      detail.add_row({std::to_string(d),
                      num(t.temperature.value(), 1) + "C",
                      pct(t.utilization, 1), num(t.transitions_per_day, 1),
                      pct(report.disk_press[d].combined_afr, 2)});
    }
    detail.print(std::cout);
  }
  return 0;
}

int run_config(const Options& opt) {
  ScenarioSpec spec = load_scenario_file(opt.config_file);
  if (opt.threads) spec.threads = *opt.threads;
  if (opt.fleet_threads) spec.fleet.threads = *opt.fleet_threads;

  std::cout << "scenario '" << spec.name << "' from " << opt.config_file
            << "\n";
  const ScenarioResult result = run_scenario(spec);
  std::cout << "ran " << result.cells.size() << " cells\n\n";

  AsciiTable table("scenario '" + result.scenario + "' — per-cell summary");
  table.set_header({"policy", "workload", "load", "seed", "epoch", "disks",
                    "array AFR", "energy (kJ)", "mean RT (ms)"});
  for (const ScenarioCell& c : result.cells) {
    table.add_row({c.policy, c.workload, num(c.load, 2),
                   std::to_string(c.seed), num(c.epoch_s, 0),
                   std::to_string(c.disks), pct(c.report.array_afr, 2),
                   num(c.report.sim.energy_joules() / 1e3, 1),
                   num(c.report.sim.mean_response_time_s() * 1e3, 2)});
  }
  table.print(std::cout);

  std::string csv_path = opt.csv_path;
  if (csv_path.empty()) {
    std::error_code ec;
    std::filesystem::create_directories("results", ec);  // best effort
    csv_path = "results/" + result.scenario + ".csv";
  }
  write_scenario_csv_file(result, csv_path);
  std::cout << "\nwrote " << csv_path;
  if (!opt.json_path.empty()) {
    write_scenario_json_file(result, opt.json_path, /*include_reports=*/true);
    std::cout << " and " << opt.json_path;
  }
  std::cout << "\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  try {
    if (!parse(argc, argv, opt)) {
      print_help();
      return 0;
    }
    if (opt.emit_trace) return emit_trace(opt);
    return opt.config_file.empty() ? run_single(opt) : run_config(opt);
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
