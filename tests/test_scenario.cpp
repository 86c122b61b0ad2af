// Scenario subsystem (src/exp): INI-lite parsing with line-numbered
// errors, engine cell expansion/ordering, and the determinism contract —
// threads = 1 and threads = N produce identical ordered cells and
// byte-identical serialized reports.
#include "exp/scenario.h"

#include <gtest/gtest.h>

#include <sstream>
#include <stdexcept>
#include <string>

#include "core/report_io.h"
#include "exp/scenario_engine.h"
#include "exp/scenario_report.h"

namespace pr {
namespace {

// ---------------------------------------------------------------- parser

constexpr const char* kFullScenario = R"(# a comment
[scenario]
name = demo
threads = 3
seeds = 7, 9          # trailing comment

[system]
disks = 4,6
epoch = 600, 1200
positioned = true

[workload light]
preset = wc98-light
files = 50
requests = 1000
load = 0.5, 2.0

[policy read]
label = READ
cap = 12
threshold = 5

[policy static]
)";

TEST(ScenarioParse, FullSpec) {
  const ScenarioSpec spec = parse_scenario(kFullScenario, "demo.ini");
  EXPECT_EQ(spec.name, "demo");
  EXPECT_EQ(spec.threads, 3u);
  EXPECT_EQ(spec.seeds, (std::vector<std::uint64_t>{7, 9}));
  EXPECT_EQ(spec.disks, (std::vector<std::size_t>{4, 6}));
  EXPECT_EQ(spec.epochs, (std::vector<double>{600.0, 1200.0}));
  EXPECT_TRUE(spec.positioned);

  ASSERT_EQ(spec.workloads.size(), 1u);
  const ScenarioWorkload& w = spec.workloads[0];
  EXPECT_EQ(w.name, "light");
  EXPECT_EQ(w.kind, "synthetic");
  EXPECT_EQ(w.preset, "wc98-light");
  ASSERT_TRUE(w.files.has_value());
  EXPECT_EQ(*w.files, 50u);
  ASSERT_TRUE(w.requests.has_value());
  EXPECT_EQ(*w.requests, 1000u);
  EXPECT_EQ(w.loads, (std::vector<double>{0.5, 2.0}));

  ASSERT_EQ(spec.policies.size(), 2u);
  EXPECT_EQ(spec.policies[0].name, "read");
  EXPECT_EQ(spec.policies[0].label, "READ");
  EXPECT_EQ(spec.policies[0].params.raw("cap"), "12");
  EXPECT_EQ(spec.policies[0].params.raw("threshold"), "5");
  EXPECT_EQ(spec.policies[1].name, "static");
  EXPECT_TRUE(spec.policies[1].params.empty());
}

TEST(ScenarioParse, DefaultsWhenSectionsAbsent) {
  const ScenarioSpec spec = parse_scenario("[policy read]\n");
  EXPECT_EQ(spec.name, "scenario");
  EXPECT_EQ(spec.threads, 0u);
  EXPECT_EQ(spec.seeds, (std::vector<std::uint64_t>{42}));
  EXPECT_EQ(spec.disks, (std::vector<std::size_t>{8}));
  EXPECT_EQ(spec.epochs, (std::vector<double>{3600.0}));
  EXPECT_FALSE(spec.positioned);
  EXPECT_TRUE(spec.workloads.empty());  // engine supplies the default
}

// Expect parse_scenario(text) to throw an invalid_argument whose message
// contains every fragment (used for "source:line" context checks).
void expect_parse_error(const std::string& text,
                        std::initializer_list<const char*> fragments) {
  try {
    (void)parse_scenario(text, "t.ini");
    FAIL() << "expected throw for:\n" << text;
  } catch (const std::invalid_argument& e) {
    const std::string msg = e.what();
    for (const char* fragment : fragments) {
      EXPECT_NE(msg.find(fragment), std::string::npos)
          << "missing '" << fragment << "' in: " << msg;
    }
  }
}

TEST(ScenarioParse, ErrorsCarrySourceAndLine) {
  expect_parse_error("[nonsense]\n", {"t.ini:1", "nonsense"});
  expect_parse_error("name = x\n", {"t.ini:1"});  // key before any section
  expect_parse_error("[system]\nwheels = 4\n", {"t.ini:2", "wheels"});
  expect_parse_error("[system]\ndisks = 8x\n", {"t.ini:2", "8x"});
  expect_parse_error("[scenario]\nseeds = -1\n", {"t.ini:2"});
  expect_parse_error("[workload w]\npreset = wc98-mega\n[policy read]\n",
                     {"wc98-mega"});
  expect_parse_error("[policy warp-drive]\n", {"warp-drive"});
  expect_parse_error("[policy read]\nwarp = 9\n", {"warp"});
  expect_parse_error("[policy]\n", {"t.ini:1"});  // missing policy name
}

TEST(ScenarioParse, ThirtyTwoBitKeysRejectValuesThatWouldWrap) {
  // A plain 32-bit cast turns threads = 2^32 into 0 (hardware
  // concurrency) and persistence = 2^32 + 1 into 1; both must be errors
  // naming the line and the key.
  expect_parse_error("[scenario]\nthreads = 4294967296\n",
                     {"t.ini:2:", "threads", "4294967296"});
  expect_parse_error("[fleet]\nshards = 2\nthreads = 4294967296\n",
                     {"t.ini:3:", "threads", "4294967296"});
  expect_parse_error("[control]\npersistence = 4294967297\n",
                     {"t.ini:2:", "persistence", "4294967297"});
  EXPECT_EQ(parse_scenario("[scenario]\nthreads = 4294967295\n"
                           "[policy read]\n",
                           "t.ini")
                .threads,
            4294967295u);
}

TEST(ScenarioValidate, RejectsBadSpecs) {
  ScenarioSpec spec;
  spec.policies.push_back({"read", "", {}});

  EXPECT_NO_THROW(validate_scenario(spec));

  ScenarioSpec no_policies = spec;
  no_policies.policies.clear();
  EXPECT_THROW(validate_scenario(no_policies), std::invalid_argument);

  ScenarioSpec zero_disks = spec;
  zero_disks.disks = {0};
  EXPECT_THROW(validate_scenario(zero_disks), std::invalid_argument);

  ScenarioSpec bad_epoch = spec;
  bad_epoch.epochs = {-1.0};
  EXPECT_THROW(validate_scenario(bad_epoch), std::invalid_argument);

  ScenarioSpec bad_load = spec;
  bad_load.workloads.push_back(ScenarioWorkload{});
  bad_load.workloads[0].loads = {0.0};
  EXPECT_THROW(validate_scenario(bad_load), std::invalid_argument);

  ScenarioSpec traceless = spec;
  traceless.workloads.push_back(ScenarioWorkload{});
  traceless.workloads[0].kind = "trace";  // no path
  EXPECT_THROW(validate_scenario(traceless), std::invalid_argument);

  // Repeated sections are how a scenario sweeps a knob or a preset
  // override, so each must carry its own label/name: otherwise their rows
  // cannot be told apart. The message names the clash.
  const auto expect_duplicate = [](const ScenarioSpec& bad,
                                   const std::string& fragment) {
    try {
      validate_scenario(bad);
      ADD_FAILURE() << "expected a duplicate error naming " << fragment;
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(fragment), std::string::npos)
          << e.what();
    }
  };
  ScenarioSpec same_label = spec;
  same_label.policies.push_back({"read", "", {{"cap", "10"}}});
  expect_duplicate(same_label, "duplicate policy label 'read'");
  same_label.policies[1].label = "READ-10";
  EXPECT_NO_THROW(validate_scenario(same_label));
  // A label equal to another section's bare name clashes too.
  same_label.policies.push_back({"static", "read", {}});
  expect_duplicate(same_label, "duplicate policy label 'read'");

  ScenarioSpec same_workload = spec;
  same_workload.workloads.resize(2);  // both named "default"
  same_workload.workloads[1].zipf_alpha = 0.2;
  expect_duplicate(same_workload, "duplicate workload name 'default'");
  same_workload.workloads[1].name = "a0.2";
  EXPECT_NO_THROW(validate_scenario(same_workload));

  // The 2x2 file that used to run and write four rows all reading
  // "read,w".
  expect_parse_error(
      "[workload w]\n[workload w]\nzipf_alpha = 0.2\n"
      "[policy read]\n[policy read]\ncap = 10\n",
      {"t.ini", "duplicate policy label 'read'"});
  expect_parse_error(
      "[workload w]\n[workload w]\nzipf_alpha = 0.2\n"
      "[policy read]\n[policy read]\nlabel = READ-10\ncap = 10\n",
      {"t.ini", "duplicate workload name 'w'"});

  // A repeated value on a sweep axis expands into cells whose rows cannot
  // be told apart; the message names the axis and the value.
  ScenarioSpec same_seed = spec;
  same_seed.seeds = {42, 7, 42};
  expect_duplicate(same_seed, "duplicate seeds value 42");
  ScenarioSpec same_disks = spec;
  same_disks.disks = {4, 4};
  expect_duplicate(same_disks, "duplicate disks value 4");
  ScenarioSpec same_epoch = spec;
  same_epoch.epochs = {600.0, 3600.0, 600.0};
  expect_duplicate(same_epoch, "duplicate epoch value 600");
  ScenarioSpec same_load = spec;
  same_load.workloads.push_back(ScenarioWorkload{});
  same_load.workloads[0].loads = {1.0, 2.5, 2.5};
  expect_duplicate(same_load, "workload 'default': duplicate load value 2.5");
  ScenarioSpec same_scale = spec;
  same_scale.fault.enabled = true;
  same_scale.fault.rate_scales = {0.0, 0.5, 0.5};
  expect_duplicate(same_scale, "duplicate rate_scale value 0.5");
  // Distinct values on every axis still pass.
  ScenarioSpec distinct = same_scale;
  distinct.seeds = {42, 7};
  distinct.disks = {4, 8};
  distinct.epochs = {600.0, 3600.0};
  distinct.fault.rate_scales = {0.0, 0.5};
  distinct.workloads.push_back(ScenarioWorkload{});
  distinct.workloads[0].loads = {1.0, 2.5};
  EXPECT_NO_THROW(validate_scenario(distinct));

  // The file that used to exit 0 with four identical rows.
  expect_parse_error(
      "[scenario]\nseeds = 42,42\n[system]\ndisks = 4,4\n"
      "[workload w]\n[policy read]\n",
      {"t.ini", "duplicate seeds value 42"});
  expect_parse_error("[system]\ndisks = 4,4\n[policy read]\n",
                     {"t.ini", "duplicate disks value 4"});
}

TEST(ScenarioParse, FaultSection) {
  const ScenarioSpec spec = parse_scenario(
      "[policy read]\n"
      "[fault]\n"
      "seed = 7\n"
      "afr = 0.5\n"
      "rate_scale = 0, 10, 40\n"
      "mttr = 120\n");
  EXPECT_TRUE(spec.fault.enabled);
  EXPECT_EQ(spec.fault.seed, 7u);
  EXPECT_DOUBLE_EQ(spec.fault.afr, 0.5);
  EXPECT_EQ(spec.fault.rate_scales, (std::vector<double>{0.0, 10.0, 40.0}));
  EXPECT_DOUBLE_EQ(spec.fault.mttr_s, 120.0);

  // Absent section leaves injection off with the documented defaults.
  const ScenarioSpec plain = parse_scenario("[policy read]\n");
  EXPECT_FALSE(plain.fault.enabled);
  EXPECT_DOUBLE_EQ(plain.fault.afr, 0.08);

  expect_parse_error("[fault oops]\n", {"t.ini:1"});
  expect_parse_error("[policy read]\n[fault]\nwobble = 1\n",
                     {"t.ini:3", "wobble"});
}

TEST(ScenarioValidate, RejectsBadFaultKnobs) {
  ScenarioSpec spec;
  spec.policies.push_back({"read", "", {}});
  spec.fault.enabled = true;
  EXPECT_NO_THROW(validate_scenario(spec));

  ScenarioSpec bad_afr = spec;
  bad_afr.fault.afr = -0.1;
  EXPECT_THROW(validate_scenario(bad_afr), std::invalid_argument);

  ScenarioSpec no_scales = spec;
  no_scales.fault.rate_scales.clear();
  EXPECT_THROW(validate_scenario(no_scales), std::invalid_argument);

  ScenarioSpec bad_scale = spec;
  bad_scale.fault.rate_scales = {1.0, -2.0};
  EXPECT_THROW(validate_scenario(bad_scale), std::invalid_argument);

  ScenarioSpec bad_mttr = spec;
  bad_mttr.fault.mttr_s = 0.0;
  EXPECT_THROW(validate_scenario(bad_mttr), std::invalid_argument);
}

TEST(ScenarioValidate, PresetNames) {
  for (const char* preset : {"wc98-light", "wc98-heavy", "wc98-quiet",
                             "proxy", "ftp", "email", "media"}) {
    EXPECT_EQ(preset_workload_config(preset, 7).seed, 7u) << preset;
  }
  // The "valid:" list is the lookup's own table, each name once.
  try {
    (void)preset_workload_config("wc98-mega", 42);
    ADD_FAILURE() << "wc98-mega resolved";
  } catch (const std::invalid_argument& e) {
    EXPECT_STREQ(e.what(),
                 "unknown workload preset 'wc98-mega'; valid: wc98-light "
                 "wc98-heavy wc98-quiet proxy ftp email media");
  }
}

// ---------------------------------------------------------------- engine

ScenarioSpec tiny_spec(unsigned threads) {
  ScenarioSpec spec;
  spec.name = "tiny";
  spec.threads = threads;
  spec.seeds = {1, 2};
  spec.disks = {2, 4};
  spec.epochs = {600.0};
  ScenarioWorkload w;
  w.name = "w";
  w.preset = "wc98-light";
  w.files = 60;
  w.requests = 1500;
  spec.workloads = {w};
  spec.policies.push_back({"read", "READ", ParamMap{{"cap", "40"}}});
  spec.policies.push_back({"static", "Static", {}});
  return spec;
}

TEST(ScenarioEngine, CellCountAndPolicyMajorOrder) {
  const ScenarioResult result = run_scenario(tiny_spec(2));
  EXPECT_EQ(result.scenario, "tiny");
  // 2 policies x 1 workload x 2 seeds x 1 epoch x 2 disks.
  ASSERT_EQ(result.cells.size(), 8u);
  const char* policies[] = {"READ", "READ", "READ", "READ",
                            "Static", "Static", "Static", "Static"};
  const std::uint64_t seeds[] = {1, 1, 2, 2, 1, 1, 2, 2};
  const std::size_t disks[] = {2, 4, 2, 4, 2, 4, 2, 4};
  for (std::size_t i = 0; i < result.cells.size(); ++i) {
    const ScenarioCell& c = result.cells[i];
    EXPECT_EQ(c.policy, policies[i]) << "cell " << i;
    EXPECT_EQ(c.workload, "w") << "cell " << i;
    EXPECT_EQ(c.seed, seeds[i]) << "cell " << i;
    EXPECT_EQ(c.disks, disks[i]) << "cell " << i;
    EXPECT_DOUBLE_EQ(c.epoch_s, 600.0) << "cell " << i;
    EXPECT_DOUBLE_EQ(c.load, 1.0) << "cell " << i;  // preset default
    EXPECT_EQ(c.report.sim.ledgers.size(), c.disks) << "cell " << i;
  }
}

TEST(ScenarioEngine, LoadAxisExpandsVariants) {
  ScenarioSpec spec = tiny_spec(2);
  spec.seeds = {1};
  spec.disks = {2};
  spec.policies.resize(1);  // READ only
  spec.workloads[0].loads = {0.5, 2.0};
  const ScenarioResult result = run_scenario(spec);
  ASSERT_EQ(result.cells.size(), 2u);
  EXPECT_DOUBLE_EQ(result.cells[0].load, 0.5);
  EXPECT_DOUBLE_EQ(result.cells[1].load, 2.0);
}

TEST(ScenarioEngine, DefaultConstructedWorkloadIsNamedDefault) {
  // (The engine's no-workload fallback is ScenarioWorkload{}, i.e. a
  // full-size wc98-light day — too big for a unit test, so exercise the
  // same struct shrunk down.)
  ScenarioSpec spec = tiny_spec(2);
  spec.seeds = {1};
  spec.disks = {2};
  spec.policies.resize(1);
  spec.workloads = {ScenarioWorkload{}};
  spec.workloads[0].files = 60;
  spec.workloads[0].requests = 1500;
  const ScenarioResult result = run_scenario(spec);
  ASSERT_EQ(result.cells.size(), 1u);
  EXPECT_EQ(result.cells[0].workload, "default");
}

// ----------------------------------------------------- determinism: engine

TEST(ScenarioEngine, ThreadCountNeverChangesResults) {
  const ScenarioResult one = run_scenario(tiny_spec(1));
  const ScenarioResult four = run_scenario(tiny_spec(4));

  ASSERT_EQ(one.cells.size(), four.cells.size());
  for (std::size_t i = 0; i < one.cells.size(); ++i) {
    EXPECT_EQ(one.cells[i].policy, four.cells[i].policy) << "cell " << i;
    EXPECT_EQ(one.cells[i].seed, four.cells[i].seed) << "cell " << i;
    EXPECT_EQ(one.cells[i].disks, four.cells[i].disks) << "cell " << i;
    // Byte-identical per-cell reports, not merely close metrics.
    EXPECT_EQ(pr::to_json(one.cells[i].report),
              pr::to_json(four.cells[i].report))
        << "cell " << i;
  }

  // And byte-identical serialized sweeps, CSV and JSON.
  std::ostringstream csv1, csv4;
  write_scenario_csv(one, csv1);
  write_scenario_csv(four, csv4);
  EXPECT_EQ(csv1.str(), csv4.str());
  EXPECT_EQ(to_json(one, /*include_reports=*/true),
            to_json(four, /*include_reports=*/true));
}

// ------------------------------------------------------------ fault axis

ScenarioSpec faulted_spec(unsigned threads) {
  ScenarioSpec spec = tiny_spec(threads);
  spec.name = "tiny_faults";
  spec.seeds = {1};
  spec.disks = {3};
  spec.policies.resize(1);  // READ only
  spec.fault.enabled = true;
  spec.fault.seed = 7;
  spec.fault.afr = 0.08;
  // The tiny trace spans ~90 s, so only extreme scales produce faults.
  spec.fault.rate_scales = {0.0, 4'000'000.0};
  spec.fault.mttr_s = 20.0;
  return spec;
}

TEST(ScenarioEngine, FaultAxisExpandsCellsAndFillsMetrics) {
  const ScenarioResult result = run_scenario(faulted_spec(2));
  EXPECT_TRUE(result.faulted);
  // 1 policy x 1 variant x 1 epoch x 1 disks x 2 rate scales.
  ASSERT_EQ(result.cells.size(), 2u);

  ASSERT_TRUE(result.cells[0].fault.has_value());
  const ScenarioFaultCell& baseline = *result.cells[0].fault;
  EXPECT_DOUBLE_EQ(baseline.rate_scale, 0.0);
  EXPECT_EQ(baseline.failures, 0u);
  EXPECT_EQ(baseline.lost_requests, 0u);
  EXPECT_DOUBLE_EQ(baseline.downtime_s, 0.0);

  ASSERT_TRUE(result.cells[1].fault.has_value());
  const ScenarioFaultCell& faulted = *result.cells[1].fault;
  EXPECT_DOUBLE_EQ(faulted.rate_scale, 4'000'000.0);
  EXPECT_DOUBLE_EQ(faulted.injected_afr, 0.08 * 4'000'000.0);
  EXPECT_GT(faulted.failures, 0u);
  EXPECT_GT(faulted.downtime_s, 0.0);
  EXPECT_GT(faulted.degraded_window_s, 0.0);
  EXPECT_GT(faulted.observed_afr, 0.0);
  EXPECT_GT(faulted.press_over_observed, 0.0);
  // The analyzer's duration metrics landed in the cell's counters.
  EXPECT_GT(result.cells[1].report.sim.counters.at("fault.downtime_ms"), 0u);

  // The rate-scale-0 cell runs the byte-identical fault-free path: its
  // report matches the same spec with the [fault] section removed.
  ScenarioSpec plain = faulted_spec(2);
  plain.fault = ScenarioFault{};
  const ScenarioResult unfaulted = run_scenario(plain);
  ASSERT_EQ(unfaulted.cells.size(), 1u);
  EXPECT_FALSE(unfaulted.faulted);
  EXPECT_FALSE(unfaulted.cells[0].fault.has_value());
  EXPECT_EQ(pr::to_json(result.cells[0].report),
            pr::to_json(unfaulted.cells[0].report));
}

TEST(ScenarioEngine, FaultSweepThreadsNeverChangeBytes) {
  const ScenarioResult one = run_scenario(faulted_spec(1));
  const ScenarioResult four = run_scenario(faulted_spec(4));

  std::ostringstream csv1, csv4;
  write_scenario_csv(one, csv1);
  write_scenario_csv(four, csv4);
  EXPECT_EQ(csv1.str(), csv4.str());
  EXPECT_EQ(to_json(one, /*include_reports=*/true),
            to_json(four, /*include_reports=*/true));
}

TEST(ScenarioReport, FaultCsvSchemaWidens) {
  EXPECT_EQ(scenario_csv_header(true),
            scenario_csv_header() +
                ",fault_rate_scale,fault_injected_afr,fault_failures,"
                "fault_lost,fault_degraded,fault_downtime_s,"
                "fault_degraded_window_s,fault_mean_recovery_s,"
                "fault_observed_afr,press_over_injected,press_over_observed");
  const ScenarioResult result = run_scenario(faulted_spec(2));
  std::ostringstream csv;
  write_scenario_csv(result, csv);
  const std::string text = csv.str();
  EXPECT_EQ(text.substr(0, text.find('\n')), scenario_csv_header(true));
  std::size_t lines = 0;
  for (const char ch : text) lines += ch == '\n';
  EXPECT_EQ(lines, 1u + result.cells.size());
  // JSON cells carry the fault object.
  EXPECT_NE(to_json(result).find("\"fault\":{\"rate_scale\":"),
            std::string::npos);
}

TEST(ScenarioReport, CsvSchema) {
  EXPECT_EQ(scenario_csv_header(),
            "scenario,policy,workload,load,seed,epoch_s,disks,array_afr,"
            "energy_j,mean_rt_ms,p95_rt_ms,total_transitions,"
            "max_transitions_per_day,migrations,migration_mb");
  const ScenarioResult result = run_scenario(tiny_spec(2));
  std::ostringstream csv;
  write_scenario_csv(result, csv);
  const std::string text = csv.str();
  EXPECT_EQ(text.substr(0, text.find('\n')), scenario_csv_header());
  // Header + one row per cell.
  std::size_t lines = 0;
  for (const char ch : text) lines += ch == '\n';
  EXPECT_EQ(lines, 1u + result.cells.size());
}

}  // namespace
}  // namespace pr
