// The shipped scenario files (scenarios/*.ini, found through the
// PR_SCENARIO_DIR compile definition): every one parses and validates,
// and the sweeps that replaced hand-written bench loops reproduce, cell
// for cell and bit for bit, a direct SimulationSession run built the way
// those loops built theirs: the preset's config (stated here by hand for
// wc98-quiet and media, as the loops stated it before those presets
// existed) plus the section's overrides, policies::make(name, params),
// and cheetah_seek_curve() when the file says positioned.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <filesystem>
#include <string>
#include <vector>

#include "core/registry.h"
#include "core/session.h"
#include "disk/geometry.h"
#include "exp/scenario.h"
#include "exp/scenario_engine.h"

namespace pr {
namespace {

const std::string kScenarioDir = PR_SCENARIO_DIR;

/// The files that each replaced a bench program's private loop.
const std::vector<std::string> kPortedSweeps = {
    "sensitivity_epoch", "robustness_seeds", "sensitivity_skew",
    "ext_replication", "sensitivity_positional", "ablation_transition_cap",
    "ablation_adaptive_threshold", "baseline_drpm", "multiday_cap",
    "ext_striping"};

TEST(ScenarioFiles, EveryShippedFileParsesAndValidates) {
  std::vector<std::string> names;
  for (const auto& entry : std::filesystem::directory_iterator(kScenarioDir)) {
    if (entry.path().extension() == ".ini") {
      names.push_back(entry.path().stem().string());
    }
  }
  std::sort(names.begin(), names.end());
  for (const std::string& ported : kPortedSweeps) {
    EXPECT_TRUE(std::binary_search(names.begin(), names.end(), ported))
        << ported << ".ini is not in " << kScenarioDir;
  }
  for (const std::string& name : names) {
    SCOPED_TRACE(name);
    ScenarioSpec spec;
    ASSERT_NO_THROW(spec = load_scenario_file(kScenarioDir + "/" + name +
                                              ".ini"));
    EXPECT_NO_THROW(validate_scenario(spec));
    EXPECT_EQ(spec.name, name) << "the CSV lands in results/<name>.csv";
  }
}

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

/// The workload config the bench loops built for `preset`: the quiet day
/// and the media day as they wrote them out, every other preset through
/// the scenario lookup.
SyntheticWorkloadConfig loop_workload_config(const std::string& preset,
                                             std::uint64_t seed) {
  if (preset == "wc98-quiet") {
    SyntheticWorkloadConfig c = worldcup98_light_config(seed);
    c.mean_interarrival = Seconds{0.7};
    c.request_count = 120'000;
    return c;
  }
  if (preset == "media") {
    SyntheticWorkloadConfig c;
    c.file_count = 400;
    c.request_count = 60'000;
    c.mean_interarrival = Seconds{1.0};
    c.zipf_alpha = 0.8;
    c.size_log_mu = 15.2;
    c.size_log_sigma = 1.0;
    c.min_file_bytes = 256 * kKiB;
    c.max_file_bytes = 64 * kMiB;
    c.seed = seed;
    return c;
  }
  return preset_workload_config(preset, seed);
}

std::uint64_t counter(const SimResult& sim, const char* name) {
  const auto it = sim.counters.find(name);
  return it == sim.counters.end() ? 0 : it->second;
}

class PortedSweep : public ::testing::TestWithParam<std::string> {};

TEST_P(PortedSweep, CellsMatchDirectSessionRuns) {
  ScenarioSpec spec =
      load_scenario_file(kScenarioDir + "/" + GetParam() + ".ini");
  spec.threads = 2;
  for (ScenarioWorkload& w : spec.workloads) {
    ASSERT_EQ(w.kind, "synthetic");
    w.files = 1'000;
    w.requests = 20'000;
  }
  const ScenarioResult result = run_scenario(spec);
  std::size_t variants = 0;
  for (const ScenarioWorkload& w : spec.workloads) {
    variants += std::max<std::size_t>(w.loads.size(), 1) * spec.seeds.size();
  }
  ASSERT_EQ(result.cells.size(), spec.policies.size() * variants *
                                     spec.epochs.size() * spec.disks.size());

  for (const ScenarioCell& cell : result.cells) {
    SCOPED_TRACE(cell.policy + " / " + cell.workload + " / seed " +
                 std::to_string(cell.seed) + " / epoch " +
                 std::to_string(cell.epoch_s) + " / disks " +
                 std::to_string(cell.disks));
    const auto w = std::find_if(
        spec.workloads.begin(), spec.workloads.end(),
        [&](const ScenarioWorkload& x) { return x.name == cell.workload; });
    ASSERT_NE(w, spec.workloads.end());
    const auto p = std::find_if(
        spec.policies.begin(), spec.policies.end(),
        [&](const ScenarioPolicy& x) {
          return x.display_label() == cell.policy;
        });
    ASSERT_NE(p, spec.policies.end());

    SyntheticWorkloadConfig wc = loop_workload_config(w->preset, cell.seed);
    if (w->files) wc.file_count = *w->files;
    if (w->requests) wc.request_count = *w->requests;
    if (w->zipf_alpha) wc.zipf_alpha = *w->zipf_alpha;
    if (w->burstiness) wc.burstiness = *w->burstiness;
    if (w->diurnal_depth) wc.diurnal_depth = *w->diurnal_depth;
    if (!w->loads.empty()) wc.load_factor = cell.load;
    EXPECT_EQ(bits(cell.load), bits(wc.load_factor));
    const SyntheticWorkload workload = generate_workload(wc);

    SystemConfig config;
    config.sim.disk_count = cell.disks;
    config.sim.epoch = Seconds{cell.epoch_s};
    if (spec.positioned) config.sim.seek_curve = cheetah_seek_curve();
    const auto policy = policies::make(p->name, p->params)();
    const SystemReport direct =
        SimulationSession(config)
            .with_workload(workload.files, workload.trace)
            .with_policy(*policy)
            .run();

    const SimResult& got = cell.report.sim;
    const SimResult& want = direct.sim;
    EXPECT_EQ(bits(got.energy_joules()), bits(want.energy_joules()));
    EXPECT_EQ(bits(cell.report.array_afr), bits(direct.array_afr));
    EXPECT_EQ(bits(got.mean_response_time_s()),
              bits(want.mean_response_time_s()));
    EXPECT_EQ(bits(got.response_time_sample.quantile(0.99)),
              bits(want.response_time_sample.quantile(0.99)));
    EXPECT_EQ(got.total_transitions, want.total_transitions);
    EXPECT_EQ(bits(got.max_transitions_per_day),
              bits(want.max_transitions_per_day));
    EXPECT_EQ(got.migrations, want.migrations);
    EXPECT_EQ(counter(got, "replication.copy"),
              counter(want, "replication.copy"));
    EXPECT_EQ(counter(got, "replication.offloaded_read"),
              counter(want, "replication.offloaded_read"));
  }
}

INSTANTIATE_TEST_SUITE_P(ScenarioFiles, PortedSweep,
                         ::testing::ValuesIn(kPortedSweeps),
                         [](const auto& sweep) { return sweep.param; });

}  // namespace
}  // namespace pr
