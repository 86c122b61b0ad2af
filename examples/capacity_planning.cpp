// capacity_planning — a storage-administrator workflow built on the
// library (the use case §1 motivates: "storage system administrators can
// evaluate existing energy-saving schemes' impacts on disk array
// reliability, and thus choose the most appropriate one"):
// given a reliability budget (max array AFR) and a response-time SLO,
// sweep array sizes × policies through the scenario engine and recommend
// the cheapest-energy configuration that satisfies both.
//
//   $ ./capacity_planning [max_afr_percent] [slo_ms] [--disks n,n,...]
//
// The two positionals are read in order (AFR budget first, then the SLO);
// a malformed number is an error that names the argument.
// --disks overrides the swept array sizes (paper default 6..16). Each
// value is parsed strictly (util/parse.h) and validated through
// fleet_disk_count, so >4096-disk configurations are accepted up to the
// 32-bit DiskId space and anything beyond fails loudly instead of
// overflowing an int-typed disk index.
#include <cstring>
#include <exception>
#include <iostream>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "exp/scenario_engine.h"
#include "sim/fleet_sim.h"
#include "util/parse.h"
#include "util/table.h"

int main(int argc, char** argv) try {
  using namespace pr;
  double max_afr = 0.20;
  double slo_ms = 15.0;
  std::vector<std::size_t> disk_counts = {6, 8, 10, 12, 14, 16};
  int positional = 0;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--disks") == 0) {
      if (i + 1 >= argc) throw std::invalid_argument("--disks needs a value");
      const std::string list = argv[++i];
      disk_counts.clear();
      for (std::size_t start = 0, end = 0; end != std::string::npos;
           start = end + 1) {
        end = list.find(',', start);
        disk_counts.push_back(fleet_disk_count(
            1, parse_u32(list.substr(start, end - start), "--disks")));
      }
    } else if (positional == 0) {
      max_afr = parse_double(argv[i], "max_afr_percent") / 100.0;
      ++positional;
    } else if (positional == 1) {
      slo_ms = parse_double(argv[i], "slo_ms");
      ++positional;
    } else {
      throw std::invalid_argument(std::string("unexpected argument '") +
                                  argv[i] + "'");
    }
  }

  ScenarioSpec spec;
  spec.name = "capacity_planning";
  spec.seeds = {42};
  spec.disks = disk_counts;
  spec.epochs = {3600.0};
  ScenarioWorkload day;
  day.name = "day";
  day.preset = "wc98-light";
  spec.workloads = {day};
  spec.policies = {{"read", "READ", {}},
                   {"maid", "MAID", {}},
                   {"pdc", "PDC", {}},
                   {"static", "Static", {}}};

  std::cout << "requirements: array AFR <= " << pct(max_afr, 1)
            << ", mean response time <= " << slo_ms << " ms\n"
            << "sweeping " << spec.policies.size() * spec.disks.size()
            << " configurations...\n\n";
  const ScenarioResult result = run_scenario(spec);

  AsciiTable table("Configuration sweep (one WC98-like day)");
  table.set_header({"policy", "disks", "AFR", "mean RT (ms)", "energy (kJ)",
                    "feasible"});
  std::optional<ScenarioCell> best;
  for (const auto& cell : result.cells) {
    const bool afr_ok = cell.report.array_afr <= max_afr;
    const bool rt_ok =
        cell.report.sim.mean_response_time_s() * 1e3 <= slo_ms;
    const bool feasible = afr_ok && rt_ok;
    table.add_row({cell.policy, std::to_string(cell.disks),
                   pct(cell.report.array_afr, 2),
                   num(cell.report.sim.mean_response_time_s() * 1e3, 2),
                   num(cell.report.sim.energy_joules() / 1e3, 1),
                   feasible       ? "yes"
                   : afr_ok       ? "no (RT)"
                   : rt_ok        ? "no (AFR)"
                                  : "no (both)"});
    if (feasible &&
        (!best || cell.report.sim.energy_joules() <
                      best->report.sim.energy_joules())) {
      best = cell;
    }
  }
  table.print(std::cout);

  if (best) {
    std::cout << "\nrecommendation: " << best->policy << " on "
              << best->disks << " disks — "
              << num(best->report.sim.energy_joules() / 1e3, 1) << " kJ/day, AFR "
              << pct(best->report.array_afr, 2) << ", mean RT "
              << num(best->report.sim.mean_response_time_s() * 1e3, 2)
              << " ms\n";
  } else {
    std::cout << "\nno configuration satisfies the requirements — relax the "
                 "AFR budget or the SLO, or extend the sweep.\n";
  }
  return 0;
} catch (const std::exception& e) {
  std::cerr << "error: " << e.what() << "\n";
  return 1;
}
