// fleet_cost_report — the economics workflow end-to-end: simulate a
// server fleet's day under a chosen policy, score it with PRESS, convert
// to an annual budget (energy + replacements + expected data loss),
// cross-check the array's data-loss risk by Monte-Carlo under several
// RAID levels, and emit a machine-readable JSON report next to the
// human-readable tables.
//
//   $ ./fleet_cost_report [policy] [workload] [out.json] [shards] [disks]
//     policy:   read|maid|pdc|static          (default read)
//     workload: web|proxy|ftp|email           (default web; web is the
//               wc98-light preset, and any other scenario preset works)
//     shards:   array count in the fleet      (default 1)
//     disks:    disks per shard/array         (default 8)
//
// The day runs as a one-cell scenario through the scenario engine; with
// shards > 1 the cell is a `[fleet]` of shards × disks arrays (sim/
// fleet_sim) merged into one scored result. Geometry is validated through
// fleet_disk_count, so >4096-disk fleets are first-class and anything past
// the 32-bit DiskId space fails loudly instead of overflowing an int-typed
// index.
#include <algorithm>
#include <exception>
#include <iostream>
#include <string>
#include <utility>

#include "core/report_io.h"
#include "exp/scenario_engine.h"
#include "press/economics.h"
#include "press/montecarlo.h"
#include "press/mttdl.h"
#include "sim/fleet_sim.h"
#include "util/parse.h"
#include "util/table.h"

namespace {

// Registry name for the scenario policy (see core/registry.h).
std::string pick_policy(const std::string& name) {
  if (name == "maid" || name == "pdc" || name == "static") return name;
  return "read";
}

}  // namespace

int main(int argc, char** argv) try {
  using namespace pr;
  const std::string policy_name = pick_policy(argc > 1 ? argv[1] : "read");
  const std::string workload_name = argc > 2 ? argv[2] : "web";
  const std::string json_path = argc > 3 ? argv[3] : "";
  const std::uint32_t shards = argc > 4 ? parse_u32(argv[4], "shards") : 1;
  const std::uint32_t disks = argc > 5 ? parse_u32(argv[5], "disks") : 8;
  // Checked geometry: throws before any simulation when a factor is zero
  // or shards × disks leaves the 32-bit DiskId space.
  const std::uint32_t fleet_disks = fleet_disk_count(shards, disks);

  ScenarioWorkload day;
  day.preset = workload_name == "web" ? "wc98-light" : workload_name;
  // Keep the example snappy regardless of preset. requests is the fleet
  // total with shards > 1 (split across shards).
  const SyntheticWorkloadConfig preset = preset_workload_config(day.preset, 42);
  day.requests = std::min<std::size_t>(preset.request_count, 300'000);
  day.files = std::min<std::size_t>(preset.file_count, 20'000);

  ScenarioSpec spec;
  spec.name = "fleet_cost_report";
  spec.disks = {disks};
  spec.workloads = {day};
  spec.policies = {{policy_name, "", {}}};
  if (shards > 1) {
    spec.fleet.enabled = true;
    spec.fleet.shards = shards;
    spec.fleet.threads = 0;
  }

  std::cout << "simulating a " << workload_name << " day on a " << fleet_disks
            << "-disk fleet (" << shards << " x " << disks << ") under "
            << policy_name << "...\n";
  const SystemReport report =
      std::move(run_scenario(spec).cells.front().report);
  std::cout << "\n" << report.summary() << "\n";

  // ------------------------------------------------------ annual budget
  std::vector<double> afrs;
  for (const auto& b : report.disk_press) afrs.push_back(b.combined_afr);
  const CostModel money;
  const auto cost =
      annual_cost(report.sim.total_energy, report.sim.horizon, afrs, money);

  AsciiTable budget("Annualized budget ($" + num(money.dollars_per_kwh, 2) +
                    "/kWh, $" + num(money.disk_replacement_dollars, 0) +
                    "/disk, $" +
                    num(money.data_loss_dollars_per_failure, 0) + "/loss)");
  budget.set_header({"component", "$/year"});
  budget.add_row({"energy", num(cost.energy_dollars, 2)});
  budget.add_row({"disk replacements", num(cost.replacement_dollars, 2)});
  budget.add_row({"expected data loss", num(cost.data_loss_dollars, 2)});
  budget.add_separator();
  budget.add_row({"total", num(cost.total_dollars(), 2)});
  budget.print(std::cout);
  std::cout << "expected disk failures/year: "
            << num(cost.expected_failures_per_year, 3) << "\n\n";

  // --------------------------------------------- data-loss risk by RAID
  // RAID redundancy is a per-array property, so the Monte-Carlo uses one
  // shard's worth of AFRs (the whole report in single-array mode). This
  // also keeps the example snappy at fleet scale — the trials are linear
  // in disk count.
  const std::vector<double> array_afrs(
      afrs.begin(), afrs.begin() + std::min<std::size_t>(afrs.size(), disks));
  AsciiTable risk("5-year data-loss risk by layout, one " +
                  std::to_string(array_afrs.size()) +
                  "-disk array (Monte-Carlo, per-disk "
                  "AFRs from PRESS; 24 h rebuild)");
  risk.set_header({"layout", "P(loss in 5 yr)", "mean failures/5 yr"});
  MonteCarloConfig mc;
  mc.horizon_years = 5.0;
  mc.trials = 1'500;
  struct Layout {
    const char* label;
    RaidLevel level;
  };
  for (const Layout& layout :
       {Layout{"RAID0 (no redundancy)", RaidLevel::kRaid0},
        Layout{"RAID5 (single parity)", RaidLevel::kRaid5},
        Layout{"RAID1 (mirrored)", RaidLevel::kRaid1},
        Layout{"RAID6 (double parity)", RaidLevel::kRaid6}}) {
    const auto result =
        simulate_array_lifetime(layout.level, array_afrs, mc);
    risk.add_row({layout.label, pct(result.loss_probability, 2),
                  num(result.mean_failures, 2)});
  }
  risk.print(std::cout);

  if (!json_path.empty()) {
    write_json_file(report, json_path);
    std::cout << "\nmachine-readable report written to " << json_path << "\n";
  }
  return 0;
} catch (const std::exception& e) {
  std::cerr << "error: " << e.what() << "\n";
  return 1;
}
