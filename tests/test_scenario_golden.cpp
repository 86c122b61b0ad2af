// Golden equivalence for the scenario engine: the declarative path
// (INI text -> ScenarioSpec -> run_scenario) must reproduce, byte for
// byte, what the imperative path (generate_workload + a per-cell session
// loop / a session with a hand-built policy) produced. This is the
// migration safety net for the benches that moved onto the scenario
// library.
#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "core/registry.h"
#include "core/session.h"
#include "core/report_io.h"
#include "exp/scenario.h"
#include "exp/scenario_engine.h"
#include "exp/scenario_report.h"
#include "policy/read_policy.h"

namespace pr {
namespace {

constexpr std::size_t kFiles = 120;
constexpr std::size_t kRequests = 3000;

ScenarioWorkload mini_light() {
  ScenarioWorkload w;
  w.name = "light";
  w.preset = "wc98-light";
  w.files = kFiles;
  w.requests = kRequests;
  return w;
}

// The engine cell grid must match, cell for cell, a serial loop of
// per-cell sessions over the same (policy x workload x disks) grid.
TEST(ScenarioGolden, EngineMatchesSessionLoop) {
  auto wc = worldcup98_light_config(42);
  wc.file_count = kFiles;
  wc.request_count = kRequests;
  const auto workload = generate_workload(wc);
  struct LoopCell {
    std::string policy;
    std::size_t disks;
    std::string json;
  };
  std::vector<LoopCell> loop;
  for (const auto& [label, name] :
       {std::pair{"READ", "read"}, std::pair{"MAID", "maid"}}) {
    for (const std::size_t disks : {2u, 4u}) {
      SystemConfig config;
      config.sim.disk_count = disks;
      config.sim.epoch = Seconds{600.0};
      loop.push_back({label, disks,
                      pr::to_json(SimulationSession(config)
                                      .with_workload(workload)
                                      .with_policy(name)
                                      .run())});
    }
  }

  ScenarioSpec spec;
  spec.name = "golden";
  spec.threads = 2;
  spec.seeds = {42};
  spec.disks = {2, 4};
  spec.epochs = {600.0};
  spec.workloads = {mini_light()};
  spec.policies.push_back({"read", "READ", {}});
  spec.policies.push_back({"maid", "MAID", {}});
  const ScenarioResult engine = run_scenario(spec);

  ASSERT_EQ(loop.size(), engine.cells.size());
  for (std::size_t i = 0; i < loop.size(); ++i) {
    EXPECT_EQ(loop[i].policy, engine.cells[i].policy) << "cell " << i;
    EXPECT_EQ("light", engine.cells[i].workload) << "cell " << i;
    EXPECT_EQ(loop[i].disks, engine.cells[i].disks) << "cell " << i;
    EXPECT_EQ(loop[i].json, pr::to_json(engine.cells[i].report))
        << "cell " << i;
  }
}

// A cell built from registry knobs must equal a direct session run with
// the equivalent hand-built config struct — i.e. the ParamMap really reaches
// the policy's config fields.
TEST(ScenarioGolden, RegistryKnobsReachPolicyConfig) {
  ScenarioSpec spec;
  spec.name = "knobs";
  spec.threads = 1;
  spec.seeds = {42};
  spec.disks = {4};
  spec.epochs = {600.0};
  spec.workloads = {mini_light()};
  // theta changes the zoning split, so its effect is visible even on a
  // tiny trace (cap/threshold only matter once transitions happen).
  spec.policies.push_back(
      {"read", "READ", ParamMap{{"theta", "0.5"}, {"cap", "55"}}});
  const ScenarioResult modern = run_scenario(spec);
  ASSERT_EQ(modern.cells.size(), 1u);

  auto wc = worldcup98_light_config(42);
  wc.file_count = kFiles;
  wc.request_count = kRequests;
  const auto workload = generate_workload(wc);
  ReadConfig rc;
  rc.theta = 0.5;
  rc.max_transitions_per_day = 55;
  ReadPolicy policy(rc);
  SystemConfig config;
  config.sim.disk_count = 4;
  config.sim.epoch = Seconds{600.0};
  const SystemReport direct =
      SimulationSession(config)
          .with_workload(workload.files, workload.trace)
          .with_policy(policy)
          .run();

  EXPECT_EQ(pr::to_json(direct), pr::to_json(modern.cells[0].report));

  // Sanity: the knob changed something relative to the defaults.
  ScenarioSpec defaults = spec;
  defaults.policies[0].params = ParamMap{};
  const ScenarioResult base = run_scenario(defaults);
  ASSERT_EQ(base.cells.size(), 1u);
  EXPECT_NE(pr::to_json(base.cells[0].report),
            pr::to_json(modern.cells[0].report))
      << "theta=0.5 should differ from the estimated-theta default";
}

// A spec parsed from INI text must serialize identically to the same spec
// built in code.
TEST(ScenarioGolden, ParsedSpecMatchesCodeBuiltSpec) {
  const std::string ini = R"([scenario]
name = golden
threads = 2
seeds = 42

[system]
disks = 2,4
epoch = 600

[workload light]
preset = wc98-light
files = 120
requests = 3000

[policy read]
label = READ

[policy maid]
label = MAID
)";
  const ScenarioResult parsed = run_scenario(parse_scenario(ini, "g.ini"));

  ScenarioSpec spec;
  spec.name = "golden";
  spec.threads = 2;
  spec.seeds = {42};
  spec.disks = {2, 4};
  spec.epochs = {600.0};
  spec.workloads = {mini_light()};
  spec.policies.push_back({"read", "READ", {}});
  spec.policies.push_back({"maid", "MAID", {}});
  const ScenarioResult built = run_scenario(spec);

  EXPECT_EQ(to_json(parsed, /*include_reports=*/true),
            to_json(built, /*include_reports=*/true));
}

}  // namespace
}  // namespace pr
