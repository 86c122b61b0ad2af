// webserver_day — the paper's headline scenario as an application: a full
// WorldCup98-like day served by an 8-disk array under all four policies,
// with a per-disk ESRRA breakdown showing *why* PRESS ranks them the way
// it does (which disk is the reliability bottleneck and which factor —
// temperature, utilization or transition frequency — drives it).
//
//   $ ./webserver_day
//
// Set PR_TRACE_JSONL=<prefix> to also stream each policy's control-plane
// event log (speed transitions, epochs, migrations) to
// <prefix>.<policy>.jsonl via the observability layer (docs/OBSERVABILITY.md).
#include <cstdlib>
#include <iostream>
#include <memory>
#include <string>

#include "core/session.h"
#include "obs/jsonl_writer.h"
#include "util/table.h"
#include "workload/synthetic.h"

int main(int argc, char** argv) {
  using namespace pr;
  if (argc > 1) {
    std::cerr << "unexpected argument '" << argv[1]
              << "'; webserver_day takes none\n";
    return 1;
  }

  const auto workload_config = worldcup98_light_config(42);
  std::cout << "simulating one web-server day: "
            << workload_config.request_count << " requests over "
            << workload_config.file_count << " files\n\n";
  const auto workload = generate_workload(workload_config);

  SystemConfig config;
  config.sim.disk_count = 8;
  config.sim.epoch = Seconds{3600.0};

  AsciiTable overview("One day, four energy-saving schemes (8 disks)");
  overview.set_header({"policy", "mean RT", "p99 RT", "energy", "array AFR",
                       "transitions", "migrations"});

  for (const std::string& name : {std::string("read"), std::string("maid"),
                                  std::string("pdc"), std::string("static")}) {
    // The registry-based session API: name the policy, attach observers.
    // PR_TRACE_JSONL=<path-prefix> streams the control-plane event log
    // (speed transitions, epochs, migrations) per policy for inspection.
    SimulationSession session(config);
    session.with_workload(workload).with_policy(name);
    std::unique_ptr<JsonlTraceWriter> jsonl;
    if (const char* prefix = std::getenv("PR_TRACE_JSONL")) {
      JsonlOptions options;
      options.requests = false;  // control-plane only; keep files small
      try {
        jsonl = std::make_unique<JsonlTraceWriter>(
            std::string(prefix) + "." + name + ".jsonl", options);
      } catch (const std::runtime_error& e) {
        std::cerr << e.what() << "\n";
        return 1;
      }
      session.with_observer(*jsonl);
    }
    const auto report = session.run();
    overview.add_row(
        {report.sim.policy_name,
         num(report.sim.mean_response_time_s() * 1e3, 2) + " ms",
         num(report.sim.response_time_sample.quantile(0.99) * 1e3, 2) + " ms",
         si(report.sim.energy_joules()) + "J", pct(report.array_afr, 2),
         std::to_string(report.sim.total_transitions),
         std::to_string(report.sim.migrations)});

    // Per-disk ESRRA breakdown for this policy.
    AsciiTable detail("  " + report.sim.policy_name +
                      " — per-disk ESRRA factors and PRESS AFR");
    detail.set_header({"disk", "temp", "util", "trans/day", "AFR(temp)",
                       "AFR(util)", "AFR(freq)", "AFR", "bottleneck?"});
    for (std::size_t d = 0; d < report.sim.telemetry.size(); ++d) {
      const auto& t = report.sim.telemetry[d];
      const auto& b = report.disk_press[d];
      detail.add_row({std::to_string(d), num(t.temperature.value(), 1) + "C",
                      pct(t.utilization, 1), num(t.transitions_per_day, 1),
                      pct(b.temperature_afr, 1), pct(b.utilization_afr, 1),
                      pct(b.frequency_afr, 1), pct(b.combined_afr, 1),
                      d == report.worst_disk ? "<- worst" : ""});
    }
    detail.print(std::cout);
    std::cout << "\n";
  }

  overview.print(std::cout);
  std::cout << "\nThe paper's claim (abstract): READ beats MAID and PDC on "
               "performance and reliability at comparable energy.\n";
  return 0;
}
