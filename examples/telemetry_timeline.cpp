// telemetry_timeline — the observability layer end to end: run one policy
// over a synthetic day with a TimeSeriesRecorder (and optionally a
// JsonlTraceWriter) attached, then print the windowed per-array timeline —
// the time-resolved view that aggregate end-of-run numbers hide (when do
// disks spin down, where does the queue build, which hour burns the
// energy).
//
//   $ ./telemetry_timeline [policy]
//
// `policy` is any pr::policies registry name (default "read").
// Output files in the working directory:
//   timeline.<policy>.csv    — long-form window × disk series
//   timeline.<policy>.jsonl  — control-plane event log (set
//                              PR_TELEMETRY_JSONL=0 to skip)
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>

#include "core/registry.h"
#include "core/session.h"
#include "obs/jsonl_writer.h"
#include "obs/time_series.h"
#include "util/table.h"
#include "workload/synthetic.h"

int main(int argc, char** argv) {
  using namespace pr;

  if (argc > 2) {
    std::cerr << "unexpected argument '" << argv[2]
              << "'; usage: telemetry_timeline [policy]\n";
    return 1;
  }
  const std::string policy = argc > 1 ? argv[1] : "read";
  if (!policies::contains(policy)) {
    std::cerr << "unknown policy '" << policy << "'; valid names:";
    for (const auto& name : policies::names()) std::cerr << ' ' << name;
    std::cerr << "\n";
    return 1;
  }

  const auto workload = generate_workload(worldcup98_light_config(42));
  std::cout << "policy " << policy << ", "
            << workload.trace.requests.size() << " requests, 8 disks\n\n";

  SystemConfig config;
  config.sim.disk_count = 8;
  config.sim.epoch = Seconds{3600.0};

  // One-hour windows keep the table terminal-sized; use Seconds{60.0} for
  // plot-resolution series.
  TimeSeriesRecorder timeline{Seconds{3600.0}};
  SimulationSession session(config);
  session.with_workload(workload).with_policy(policy).with_observer(timeline);

  std::unique_ptr<JsonlTraceWriter> jsonl;
  const char* jsonl_flag = std::getenv("PR_TELEMETRY_JSONL");
  if (jsonl_flag == nullptr || std::strcmp(jsonl_flag, "0") != 0) {
    JsonlOptions options;
    options.requests = false;  // control-plane only; keeps the file small
    jsonl = std::make_unique<JsonlTraceWriter>(
        "timeline." + policy + ".jsonl", options);
    session.with_observer(*jsonl);
  }

  const auto report = session.run();

  AsciiTable table("Array timeline — " + report.sim.policy_name +
                   ", 1 h windows (all disks summed)");
  table.set_header({"hour", "requests", "util", "high-speed", "energy (kJ)",
                    "max backlog (ms)", "trans", "migrations"});
  for (std::size_t w = 0; w < timeline.window_count(); ++w) {
    const auto total = timeline.array_total(w);
    const double disks = static_cast<double>(timeline.disk_count());
    table.add_row(
        {std::to_string(w),
         std::to_string(total.requests),
         pct(total.utilization(timeline.window_length()) / disks, 1),
         pct(total.high_speed_fraction(timeline.window_length()) / disks, 1),
         num(total.energy.value() / 1e3, 1),
         num(total.max_backlog.value() * 1e3, 2),
         std::to_string(total.transitions_up + total.transitions_down),
         std::to_string(total.migrations_in)});
  }
  table.print(std::cout);

  std::cout << "\ntotals: energy " << si(report.sim.energy_joules())
            << "J, mean RT " << num(report.sim.mean_response_time_s() * 1e3, 2)
            << " ms, array AFR " << pct(report.array_afr, 2) << ", "
            << report.sim.total_transitions << " transitions\n";

  const std::string csv_path = "timeline." + policy + ".csv";
  std::ofstream csv(csv_path);
  timeline.write_csv(csv);
  std::cout << "wrote " << csv_path;
  if (jsonl != nullptr) {
    std::cout << " and timeline." << policy << ".jsonl ("
              << jsonl->lines_written() << " events)";
  }
  std::cout << "\n";
  return 0;
}
