// Fleet simulation (src/sim/fleet_sim): seed derivation, checked
// geometry, shard-order merge semantics, and the headline determinism
// contract — threads=1 and threads=N produce byte-identical merged
// results, per-shard JSONL, and scenario CSV, with and without faults.
#include "sim/fleet_sim.h"

#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/registry.h"
#include "core/system.h"
#include "exp/scenario.h"
#include "exp/scenario_engine.h"
#include "exp/scenario_report.h"
#include "obs/jsonl_writer.h"
#include "util/stats.h"

namespace pr {
namespace {

FleetConfig small_fleet(std::uint32_t shards, unsigned threads) {
  FleetConfig fleet;
  fleet.shard.disk_params = two_speed_cheetah();
  fleet.shard.disk_count = 4;
  fleet.shard.epoch = Seconds{300.0};
  fleet.shards = shards;
  fleet.threads = threads;
  fleet.workload = worldcup98_light_config(42);
  fleet.workload.file_count = 120;
  fleet.workload.request_count = 12'000;  // fleet total
  fleet.base_seed = 42;
  fleet.policy = policies::make("read");
  return fleet;
}

void expect_identical(const SimResult& a, const SimResult& b) {
  EXPECT_EQ(a.policy_name, b.policy_name);
  EXPECT_EQ(a.user_requests, b.user_requests);
  EXPECT_EQ(a.response_time.count(), b.response_time.count());
  EXPECT_EQ(a.response_time.mean(), b.response_time.mean());
  EXPECT_EQ(a.response_time.max(), b.response_time.max());
  EXPECT_EQ(a.response_time_sample.quantile(0.95),
            b.response_time_sample.quantile(0.95));
  EXPECT_EQ(a.total_energy.value(), b.total_energy.value());
  EXPECT_EQ(a.horizon.value(), b.horizon.value());
  EXPECT_EQ(a.total_transitions, b.total_transitions);
  EXPECT_EQ(a.max_transitions_per_day, b.max_transitions_per_day);
  EXPECT_EQ(a.migrations, b.migrations);
  EXPECT_EQ(a.migration_bytes, b.migration_bytes);
  EXPECT_EQ(a.counters, b.counters);
  ASSERT_EQ(a.ledgers.size(), b.ledgers.size());
  for (std::size_t d = 0; d < a.ledgers.size(); ++d) {
    EXPECT_EQ(a.ledgers[d].busy_time.value(), b.ledgers[d].busy_time.value());
    EXPECT_EQ(a.ledgers[d].energy.value(), b.ledgers[d].energy.value());
    EXPECT_EQ(a.ledgers[d].requests, b.ledgers[d].requests);
  }
}

// ------------------------------------------------------------ seeds & ids

TEST(FleetSeeds, ShardSeedsAreDistinctAndPure) {
  EXPECT_EQ(fleet_shard_seed(42, 0), fleet_shard_seed(42, 0));
  EXPECT_NE(fleet_shard_seed(42, 0), fleet_shard_seed(42, 1));
  EXPECT_NE(fleet_shard_seed(42, 0), fleet_shard_seed(43, 0));
  // Consecutive shard seeds must not collapse to a stride (splitmix
  // finalizer, not an LCG).
  EXPECT_NE(fleet_shard_seed(42, 2) - fleet_shard_seed(42, 1),
            fleet_shard_seed(42, 1) - fleet_shard_seed(42, 0));
}

TEST(FleetGeometry, CountChecksOverflowAndZero) {
  EXPECT_EQ(fleet_disk_count(125, 8), 1000u);
  EXPECT_EQ(fleet_disk_count(1, 1), 1u);
  EXPECT_THROW((void)fleet_disk_count(0, 8), std::invalid_argument);
  EXPECT_THROW((void)fleet_disk_count(8, 0), std::invalid_argument);
  // 65536 * 65536 == 2^32 leaves the 32-bit DiskId space.
  EXPECT_THROW((void)fleet_disk_count(65'536, 65'536), std::invalid_argument);
  // Largest valid product: one below the kInvalidDisk sentinel.
  EXPECT_EQ(fleet_disk_count(0xFFFFFFFEu, 1), 0xFFFFFFFEu);
  EXPECT_THROW((void)fleet_disk_count(0xFFFFFFFFu, 1), std::invalid_argument);
}

TEST(FleetShardSplit, RemainderGoesToLeadingShards) {
  FleetConfig fleet = small_fleet(5, 1);
  fleet.workload.request_count = 12'003;
  std::size_t total = 0;
  for (std::uint32_t s = 0; s < fleet.shards; ++s) {
    const SyntheticWorkloadConfig wc = fleet_shard_workload(fleet, s);
    EXPECT_EQ(wc.request_count, s < 3 ? 2401u : 2400u);
    EXPECT_EQ(wc.seed, fleet_shard_seed(fleet.base_seed, s));
    total += wc.request_count;
  }
  EXPECT_EQ(total, 12'003u);
}

// --------------------------------------------------------------- merging

TEST(FleetMerge, MatchesManualShardFold) {
  FleetConfig fleet = small_fleet(3, 1);
  const FleetResult result = run_fleet(fleet);
  ASSERT_EQ(result.shards.size(), 3u);
  EXPECT_EQ(result.fleet_disks(), 12u);
  EXPECT_EQ(result.merged.ledgers.size(), 12u);

  std::size_t requests = 0;
  Joules energy{0.0};
  for (const SimResult& shard : result.shards) {
    requests += shard.user_requests;
    energy += shard.total_energy;
  }
  EXPECT_EQ(result.merged.user_requests, requests);
  EXPECT_EQ(result.merged.user_requests, 12'000u);
  EXPECT_EQ(result.merged.total_energy.value(), energy.value());
  // Fleet disk id = shard * disks_per_shard + local: shard 1's ledger 0
  // lands at merged index 4.
  EXPECT_EQ(result.merged.ledgers[4].requests,
            result.shards[1].ledgers[0].requests);
}

TEST(FleetMerge, MissingPolicyThrows) {
  FleetConfig fleet = small_fleet(2, 1);
  fleet.policy = nullptr;
  EXPECT_THROW((void)run_fleet(fleet), std::logic_error);
}

// --------------------------------------------------- threads invariance

TEST(FleetDeterminism, ThreadCountNeverChangesResults) {
  const FleetResult one = run_fleet(small_fleet(4, 1));
  const FleetResult many = run_fleet(small_fleet(4, 3));
  expect_identical(one.merged, many.merged);
  ASSERT_EQ(one.shards.size(), many.shards.size());
  for (std::size_t s = 0; s < one.shards.size(); ++s) {
    expect_identical(one.shards[s], many.shards[s]);
  }
}

TEST(FleetDeterminism, PerShardJsonlIsByteIdentical) {
  const auto run_with_jsonl = [](unsigned threads) {
    FleetConfig fleet = small_fleet(3, threads);
    auto streams = std::make_shared<std::vector<std::ostringstream>>(3);
    fleet.shard_observer = [streams](std::uint32_t shard) {
      return std::make_unique<JsonlTraceWriter>((*streams)[shard]);
    };
    (void)run_fleet(fleet);
    std::vector<std::string> out;
    for (auto& s : *streams) out.push_back(s.str());
    return out;
  };
  const std::vector<std::string> one = run_with_jsonl(1);
  const std::vector<std::string> many = run_with_jsonl(3);
  ASSERT_EQ(one.size(), many.size());
  for (std::size_t s = 0; s < one.size(); ++s) {
    EXPECT_FALSE(one[s].empty());
    EXPECT_EQ(one[s], many[s]) << "shard " << s;
  }
}

// -------------------------------------------------------------- scenario

constexpr const char* kFleetScenario = R"(
[scenario]
name = fleet_test
threads = 1
seeds = 42

[system]
disks = 4
epoch = 300

[fleet]
shards = 4
threads = 1

[workload light]
preset = wc98-light
files = 100
requests = 8000

[policy read]
label = READ
)";

std::string scenario_csv(std::string text, unsigned fleet_threads) {
  ScenarioSpec spec = parse_scenario(text, "test");
  spec.fleet.threads = fleet_threads;
  const ScenarioResult result = run_scenario(spec);
  std::ostringstream out;
  write_scenario_csv(result, out);
  return out.str();
}

TEST(FleetScenario, CsvByteIdenticalAcrossThreadCounts) {
  const std::string one = scenario_csv(kFleetScenario, 1);
  const std::string many = scenario_csv(kFleetScenario, 3);
  EXPECT_FALSE(one.empty());
  EXPECT_EQ(one, many);
  // The disks column reports the fleet total.
  EXPECT_NE(one.find(",16,"), std::string::npos);
}

TEST(FleetScenario, ComposesWithFaultsDeterministically) {
  std::string text = kFleetScenario;
  text +=
      "\n[fault]\n"
      "seed = 7\n"
      "afr = 0.08\n"
      "rate_scale = 0,200000\n"
      "mttr = 60\n";
  const std::string one = scenario_csv(text, 1);
  const std::string many = scenario_csv(text, 3);
  EXPECT_EQ(one, many);
  // The widened fault schema must survive the fleet path.
  EXPECT_NE(one.find("rate_scale"), std::string::npos);
}

TEST(FleetScenario, OneCellMatchesRunFleet) {
  // A one-cell [fleet] scenario assembles the same FleetConfig a direct
  // run_fleet caller would, so the scored results agree exactly.
  const FleetConfig fleet = small_fleet(3, 1);
  ScenarioSpec spec;
  spec.threads = 1;
  spec.seeds = {fleet.base_seed};
  spec.disks = {fleet.shard.disk_count};
  spec.epochs = {fleet.shard.epoch.value()};
  ScenarioWorkload day;
  day.preset = "wc98-light";
  day.files = fleet.workload.file_count;
  day.requests = fleet.workload.request_count;
  spec.workloads = {day};
  spec.policies = {{"read", "", {}}};
  spec.fleet.enabled = true;
  spec.fleet.shards = fleet.shards;

  const ScenarioResult result = run_scenario(spec);
  ASSERT_EQ(result.cells.size(), 1u);
  const SystemReport& cell = result.cells.front().report;
  const SystemReport direct = score(PressModel{}, run_fleet(fleet).merged);
  EXPECT_EQ(cell.sim.total_energy.value(), direct.sim.total_energy.value());
  EXPECT_EQ(cell.sim.response_time.mean(), direct.sim.response_time.mean());
  EXPECT_EQ(cell.sim.user_requests, direct.sim.user_requests);
  EXPECT_EQ(cell.sim.ledgers.size(), direct.sim.ledgers.size());
  EXPECT_EQ(cell.sim.ledgers.size(), 12u);
}

TEST(FleetScenario, RejectsNonSyntheticWorkloads) {
  const std::string text =
      "[scenario]\nname = bad\n"
      "[system]\ndisks = 4\n"
      "[fleet]\nshards = 2\n"
      "[workload t]\nkind = trace\nspec = csv:/dev/null\n"
      "[policy read]\n";
  EXPECT_THROW((void)parse_scenario(text, "test"), std::invalid_argument);
}

// ------------------------------------------------------- reservoir merge

TEST(ReservoirMerge, DeterministicAndExactUnderCapacity) {
  ReservoirSample a(16, 1);
  ReservoirSample b(16, 1);
  for (int i = 0; i < 8; ++i) a.add(i);
  for (int i = 8; i < 12; ++i) b.add(i);
  a.merge(b);
  EXPECT_EQ(a.seen(), 12u);
  EXPECT_EQ(a.size(), 12u);
  EXPECT_EQ(a.quantile(1.0), 11.0);

  // Same inputs, same fold order => identical retained sample.
  ReservoirSample c(4, 1);
  ReservoirSample d(4, 1);
  for (int i = 0; i < 100; ++i) c.add(i);
  for (int i = 100; i < 200; ++i) d.add(i);
  ReservoirSample m1(4, 1);
  m1.merge(c);
  m1.merge(d);
  ReservoirSample m2(4, 1);
  m2.merge(c);
  m2.merge(d);
  EXPECT_EQ(m1.seen(), m2.seen());
  EXPECT_EQ(m1.seen(), 200u);
  for (double q : {0.0, 0.25, 0.5, 0.75, 1.0}) {
    EXPECT_EQ(m1.quantile(q), m2.quantile(q));
  }
}

}  // namespace
}  // namespace pr
