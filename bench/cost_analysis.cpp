// cost_analysis — ABL4: §3.5's "is it worthwhile?" argument computed in
// dollars. For each policy (plus READ with an uncapped transition budget,
// the straw man the paper warns against), annualize the simulated day's
// energy bill and the PRESS-implied reliability bill (replacements +
// expected data-loss), and report the net against the Static baseline.
// Also quotes the array-level annual data-loss probability under RAID5,
// driven by each policy's worst-disk AFR.
#include <iostream>
#include <memory>

#include "bench_common.h"
#include "core/session.h"
#include "policy/maid_policy.h"
#include "policy/pdc_policy.h"
#include "policy/read_policy.h"
#include "policy/static_policy.h"
#include "press/economics.h"
#include "press/montecarlo.h"
#include "press/mttdl.h"
#include "util/table.h"
#include "workload/synthetic.h"

int main() {
  using namespace pr;
  // The quiet day (ABL1's) — the regime where DPM actually cycles and the
  // trade-off is live.
  const auto w = generate_workload(worldcup98_quiet_config(42));

  SystemConfig cfg;
  cfg.sim.disk_count = 8;
  cfg.sim.epoch = Seconds{3600.0};

  struct Candidate {
    std::string label;
    std::unique_ptr<Policy> policy;
  };
  std::vector<Candidate> candidates;
  candidates.push_back({"Static (baseline)", std::make_unique<StaticPolicy>()});
  candidates.push_back({"READ (S=40)", std::make_unique<ReadPolicy>()});
  {
    ReadConfig rc;
    rc.max_transitions_per_day = 100'000;  // the paper's cautionary tale
    candidates.push_back(
        {"READ uncapped", std::make_unique<ReadPolicy>(rc)});
  }
  candidates.push_back({"MAID", std::make_unique<MaidPolicy>()});
  candidates.push_back({"PDC", std::make_unique<PdcPolicy>()});

  const CostModel money;  // documented defaults in press/economics.h
  bench::CsvSink csv("cost_analysis");
  csv.row(std::string("policy"), std::string("energy_usd_yr"),
          std::string("replacement_usd_yr"), std::string("data_loss_usd_yr"),
          std::string("total_usd_yr"), std::string("net_vs_static_usd_yr"),
          std::string("raid5_annual_loss_prob"),
          std::string("raid5_mc_loss_prob_5yr"));

  AsciiTable table(
      "ABL4 — annualized cost: is sacrificing reliability worthwhile? "
      "(8 disks, low-traffic day; $" +
      num(money.dollars_per_kwh, 2) + "/kWh, $" +
      num(money.disk_replacement_dollars, 0) + "/disk, $" +
      num(money.data_loss_dollars_per_failure, 0) + "/loss)");
  table.set_header({"policy", "energy $/yr", "repl. $/yr", "loss $/yr",
                    "total $/yr", "net vs Static", "RAID5 P(loss)/yr",
                    "MC P(loss)/5yr"});

  AnnualCost baseline;
  bool have_baseline = false;
  for (const auto& candidate : candidates) {
    const auto report =
        SimulationSession(cfg)
            .with_workload(w.files, w.trace)
            .with_policy(*candidate.policy)
            .run();
    std::vector<double> afrs;
    for (const auto& b : report.disk_press) afrs.push_back(b.combined_afr);
    const auto cost =
        annual_cost(report.sim.total_energy, report.sim.horizon, afrs, money);
    if (!have_baseline) {
      baseline = cost;
      have_baseline = true;
    }
    const auto delta = compare_costs(cost, baseline);

    MttdlInputs mttdl;
    mttdl.disk_afr = report.array_afr;  // bottleneck disk, conservative
    mttdl.disks = cfg.sim.disk_count;
    const double p_loss =
        annual_data_loss_probability(RaidLevel::kRaid5, mttdl);

    // Monte-Carlo cross-check over a 5-year deployment with the actual
    // per-disk AFR vector (the closed form assumes a uniform array).
    MonteCarloConfig mc;
    mc.horizon_years = 5.0;
    mc.trials = 2'000;
    const auto mc_result =
        simulate_array_lifetime(RaidLevel::kRaid5, afrs, mc);

    const std::string net =
        candidate.label == "Static (baseline)"
            ? "--"
            : (delta.net_saved() >= 0.0 ? "+$" + num(delta.net_saved(), 0) +
                                              " (worthwhile)"
                                        : "-$" + num(-delta.net_saved(), 0) +
                                              " (NOT worthwhile)");
    table.add_row({candidate.label, num(cost.energy_dollars, 0),
                   num(cost.replacement_dollars, 0),
                   num(cost.data_loss_dollars, 0),
                   num(cost.total_dollars(), 0), net, pct(p_loss, 3),
                   pct(mc_result.loss_probability, 2)});
    csv.row(candidate.label, cost.energy_dollars, cost.replacement_dollars,
            cost.data_loss_dollars, cost.total_dollars(), delta.net_saved(),
            p_loss, mc_result.loss_probability);
  }
  table.print(std::cout);
  std::cout << "\n§3.5: \"the value of lost data plus the price of failed "
               "disks substantially outweigh the energy-saving gained\" — "
               "compare READ (S=40) with READ uncapped.\n";
  return 0;
}
