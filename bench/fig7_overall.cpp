// fig7_overall — regenerates Figure 7, the paper's main evaluation: READ
// vs MAID vs PDC on a WorldCup98-like day, arrays of 6-16 disks, light
// (paper rate) and heavy (4×) workload conditions. Prints the three
// panels — (a) reliability (PRESS array AFR), (b) energy, (c) mean
// response time — plus the headline improvement percentages §5.2/§6
// report. A Static (no energy saving) reference column is included.
//
// The grid itself is a declarative ScenarioSpec run through the scenario
// engine (src/exp/) — scenarios/fig7_overall.ini is the config-file
// equivalent of what this bench builds in code.
//
// PR_BENCH_QUICK=1 shrinks the trace ~20× for smoke runs.
#include <iostream>
#include <map>

#include "bench_common.h"
#include "exp/scenario_engine.h"
#include "util/stats.h"
#include "util/table.h"

namespace {

using namespace pr;

struct Key {
  std::string policy;
  std::string workload;
  std::size_t disks;
  auto operator<=>(const Key&) const = default;
};

}  // namespace

int main() {
  const bool quick = bench::quick_mode();

  ScenarioSpec spec;
  spec.name = "fig7_overall";
  spec.seeds = {42};
  spec.disks = {6, 8, 10, 12, 14, 16};
  spec.epochs = {3600.0};

  ScenarioWorkload light;
  light.name = "light";
  light.preset = "wc98-light";
  ScenarioWorkload heavy;
  heavy.name = "heavy";
  heavy.preset = "wc98-heavy";
  if (quick) {
    light.files = heavy.files = 1000;
    light.requests = heavy.requests = 80'000;
  }
  spec.workloads = {light, heavy};

  spec.policies = {{"read", "READ", {}},
                   {"maid", "MAID", {}},
                   {"pdc", "PDC", {}},
                   {"static", "Static", {}}};

  const auto base_cfg = preset_workload_config("wc98-light", 42);
  std::cout << "generating workloads ("
            << (quick ? 80'000 : base_cfg.request_count) << " requests, "
            << (quick ? 1000 : base_cfg.file_count) << " files"
            << (quick ? ", QUICK mode" : "") << ")...\n";
  std::cout << "running "
            << spec.policies.size() * spec.workloads.size() *
                   spec.disks.size()
            << " simulations...\n\n";
  const auto result = run_scenario(spec);
  const auto& cells = result.cells;

  std::map<Key, const ScenarioCell*> by_key;
  for (const auto& c : cells) {
    by_key[{c.policy, c.workload, c.disks}] = &c;
  }
  auto cell = [&](const std::string& p, const std::string& w,
                  std::size_t n) -> const ScenarioCell& {
    return *by_key.at({p, w, n});
  };

  bench::CsvSink csv("fig7_overall");
  csv.row(std::string("workload"), std::string("policy"),
          std::string("disks"), std::string("array_afr"),
          std::string("energy_j"), std::string("mean_rt_ms"),
          std::string("transitions"), std::string("max_trans_per_day"),
          std::string("migrations"));
  for (const auto& c : cells) {
    csv.row(c.workload, c.policy, c.disks, c.report.array_afr,
            c.report.sim.energy_joules(),
            c.report.sim.mean_response_time_s() * 1e3,
            c.report.sim.total_transitions,
            c.report.sim.max_transitions_per_day, c.report.sim.migrations);
  }

  const std::vector<std::string> panel_policies = {"READ", "MAID", "PDC",
                                                   "Static"};
  for (const auto& workload : {std::string("light"), std::string("heavy")}) {
    // (a) reliability
    {
      AsciiTable t("Figure 7a (" + workload +
                   ") — disk array reliability: PRESS AFR of the least "
                   "reliable disk (lower is better)");
      t.set_header({"disks", "READ", "MAID", "PDC", "Static (ref)"});
      for (std::size_t n : spec.disks) {
        std::vector<std::string> row{std::to_string(n)};
        for (const auto& p : panel_policies) {
          row.push_back(pct(cell(p, workload, n).report.array_afr, 2));
        }
        t.add_row(row);
      }
      t.print(std::cout);
      std::cout << "\n";
    }
    // (b) energy
    {
      AsciiTable t("Figure 7b (" + workload +
                   ") — energy consumption (kJ, lower is better)");
      t.set_header({"disks", "READ", "MAID", "PDC", "Static (ref)"});
      for (std::size_t n : spec.disks) {
        std::vector<std::string> row{std::to_string(n)};
        for (const auto& p : panel_policies) {
          row.push_back(
              num(cell(p, workload, n).report.sim.energy_joules() / 1e3, 1));
        }
        t.add_row(row);
      }
      t.print(std::cout);
      std::cout << "\n";
    }
    // (c) mean response time
    {
      AsciiTable t("Figure 7c (" + workload +
                   ") — mean response time (ms, lower is better)");
      t.set_header({"disks", "READ", "MAID", "PDC", "Static (ref)"});
      for (std::size_t n : spec.disks) {
        std::vector<std::string> row{std::to_string(n)};
        for (const auto& p : panel_policies) {
          row.push_back(num(
              cell(p, workload, n).report.sim.mean_response_time_s() * 1e3,
              2));
        }
        t.add_row(row);
      }
      t.print(std::cout);
      std::cout << "\n";
    }
  }

  // ------------------------------------------------ headline comparisons
  auto averages = [&](const std::string& workload, const std::string& base) {
    double afr_sum = 0.0;
    double afr_max = 0.0;
    double energy_sum = 0.0;
    double rt_better = 0.0;
    for (std::size_t n : spec.disks) {
      const auto& read = cell("READ", workload, n).report;
      const auto& other = cell(base, workload, n).report;
      const double afr_improvement =
          improvement(read.array_afr, other.array_afr);
      afr_sum += afr_improvement;
      afr_max = std::max(afr_max, afr_improvement);
      energy_sum += improvement(read.sim.energy_joules(),
                                other.sim.energy_joules());
      if (read.sim.mean_response_time_s() < other.sim.mean_response_time_s())
        rt_better += 1.0;
    }
    const double k = static_cast<double>(spec.disks.size());
    return std::tuple{afr_sum / k, afr_max, energy_sum / k, rt_better / k};
  };

  AsciiTable headline(
      "Headline comparison — READ vs baselines (paper §5.2/§6: reliability "
      "+24.9%/+50.8% avg, up to +39.7%/+57.5%; energy -4.8%/-12.6% avg "
      "under light load; RT better in all cases)");
  headline.set_header({"workload", "baseline", "reliability avg", "reliability max",
                       "energy avg", "RT better (frac of sizes)"});
  for (const auto& workload : {std::string("light"), std::string("heavy")}) {
    for (const auto& base : {std::string("MAID"), std::string("PDC")}) {
      const auto [afr_avg, afr_max, energy_avg, rt_frac] =
          averages(workload, base);
      headline.add_row({workload, base, pct(afr_avg, 1), pct(afr_max, 1),
                        pct(energy_avg, 1), num(rt_frac, 2)});
    }
  }
  headline.print(std::cout);

  std::cout << "\nREAD transition cap check: max transitions/day across all "
               "READ cells = ";
  double worst = 0.0;
  for (const auto& c : cells) {
    if (c.policy == "READ") {
      worst = std::max(worst, c.report.sim.max_transitions_per_day);
    }
  }
  std::cout << num(worst, 1) << " (budget S = 40)\n";
  return 0;
}
