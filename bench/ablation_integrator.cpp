// ablation_integrator — ABL3: the PRESS reliability integrator is the one
// under-specified piece of §3.5; this bench re-scores identical simulation
// runs under all three combination rules (Sum / Max / IndependentHazards)
// and shows the paper's cross-policy *ordering* (READ ≤ MAID ≤ PDC) is
// integrator-invariant — the paper's own validity argument ("all
// algorithms are evaluated using the same set of reliability functions").
#include <iostream>

#include "bench_common.h"
#include "core/system.h"
#include "policy/maid_policy.h"
#include "policy/pdc_policy.h"
#include "policy/read_policy.h"
#include "util/table.h"
#include "workload/synthetic.h"

int main() {
  using namespace pr;
  const auto w = generate_workload(worldcup98_light_config(42));

  SystemConfig cfg;
  cfg.sim.disk_count = 8;
  cfg.sim.epoch = Seconds{3600.0};

  // One simulation per policy; re-scored under each integrator.
  ReadPolicy read;
  MaidPolicy maid;
  PdcPolicy pdc;
  std::vector<std::pair<std::string, SimResult>> runs;
  runs.emplace_back("READ",
                    run_simulation(cfg.sim, w.files, w.trace, read));
  runs.emplace_back("MAID",
                    run_simulation(cfg.sim, w.files, w.trace, maid));
  runs.emplace_back("PDC", run_simulation(cfg.sim, w.files, w.trace, pdc));

  bench::CsvSink csv("ablation_integrator");
  csv.row(std::string("integrator"), std::string("policy"),
          std::string("array_afr"));

  AsciiTable table(
      "ABL3 — PRESS integrator strategy: array AFR per policy (8 disks, "
      "light WC98-like day)");
  table.set_header({"integrator", "READ", "MAID", "PDC",
                    "ordering preserved"});
  const std::vector<std::pair<std::string, IntegratorStrategy>> strategies =
      {{"Sum (default)", IntegratorStrategy::kSum},
       {"Max", IntegratorStrategy::kMax},
       {"IndependentHazards", IntegratorStrategy::kIndependentHazards}};
  for (const auto& [name, strategy] : strategies) {
    PressModel press({strategy, FrequencyCurve::kEq3});
    std::vector<double> afr;
    for (const auto& [policy, sim] : runs) {
      const auto report = score(press, sim);
      afr.push_back(report.array_afr);
      csv.row(name, policy, report.array_afr);
    }
    const bool ordered = afr[0] <= afr[1] && afr[0] <= afr[2];
    table.add_row({name, pct(afr[0], 2), pct(afr[1], 2), pct(afr[2], 2),
                   ordered ? "yes (READ best)" : "NO"});
  }
  table.print(std::cout);
  return 0;
}
