// sensitivity_hardware — second hardware point: the Hitachi Deskstar
// 7K400 (§2's [16], the real two-speed product the paper cites) against
// the default Cheetah-class preset. The Deskstar's shallower speed gap
// means cheaper transitions but a smaller idle-power saving; the paper's
// qualitative conclusions (READ best reliability, comparable energy)
// must not depend on which drive is simulated.
#include <iostream>
#include <memory>

#include "bench_common.h"
#include "core/session.h"
#include "policy/maid_policy.h"
#include "policy/pdc_policy.h"
#include "policy/read_policy.h"
#include "policy/static_policy.h"
#include "util/table.h"
#include "workload/synthetic.h"

int main() {
  using namespace pr;
  const auto w = generate_workload(worldcup98_light_config(42));

  bench::CsvSink csv("sensitivity_hardware");
  csv.row(std::string("drive"), std::string("policy"),
          std::string("array_afr"), std::string("energy_j"),
          std::string("mean_rt_ms"), std::string("transitions"));

  AsciiTable table(
      "Hardware sensitivity: Cheetah-class (10k/3.6k RPM) vs Deskstar "
      "7K400 (7.2k/4.5k RPM), 8 disks, light WC98-like day");
  table.set_header({"drive", "policy", "array AFR", "energy (kJ)",
                    "mean RT (ms)", "transitions"});

  struct Drive {
    const char* label;
    TwoSpeedDiskParams params;
  };
  for (const Drive& drive :
       {Drive{"Cheetah 2-speed", two_speed_cheetah()},
        Drive{"Deskstar 7K400", two_speed_deskstar()}}) {
    SystemConfig cfg;
    cfg.sim.disk_params = drive.params;
    cfg.sim.disk_count = 8;
    cfg.sim.epoch = Seconds{3600.0};

    std::vector<std::unique_ptr<Policy>> policies;
    policies.push_back(std::make_unique<ReadPolicy>());
    policies.push_back(std::make_unique<MaidPolicy>());
    policies.push_back(std::make_unique<PdcPolicy>());
    policies.push_back(std::make_unique<StaticPolicy>());
    for (const auto& policy : policies) {
      const auto report = SimulationSession(cfg)
                              .with_workload(w.files, w.trace)
                              .with_policy(*policy)
                              .run();
      table.add_row({drive.label, report.sim.policy_name,
                     pct(report.array_afr, 2),
                     num(report.sim.energy_joules() / 1e3, 1),
                     num(report.sim.mean_response_time_s() * 1e3, 2),
                     std::to_string(report.sim.total_transitions)});
      csv.row(std::string(drive.label), report.sim.policy_name,
              report.array_afr, report.sim.energy_joules(),
              report.sim.mean_response_time_s() * 1e3,
              report.sim.total_transitions);
    }
    table.add_separator();
  }
  table.print(std::cout);
  std::cout << "\nNote the Deskstar's narrower temperature bands (40-45 C) "
               "compress the temperature factor: the frequency factor — "
               "the one READ controls — matters even more there.\n";
  return 0;
}
