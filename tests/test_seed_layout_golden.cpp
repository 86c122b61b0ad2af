// Seed-layout golden: pins the byte-exact observable output of the
// simulator as it was at the seed (commit 1701bae, `Disk` objects owning
// their own ledgers), so any later change to how disk state is stored —
// the since-removed per-field array layout, or today's plain `Disk`
// members — is provably a drop-in. The constants below are
// FNV-1a-64 hashes of (a) the full JSONL observer stream and (b) a
// canonical full-precision dump of the SimResult, captured by running this
// very harness at the seed commit. Any change to arithmetic order, event
// interleaving, or counter content shows up as a hash mismatch.
//
// The hashes are bit-exact IEEE-754 artifacts of the x86-64 baseline ISA
// (no FMA contraction, same code path in Debug and Release); other
// architectures may contract differently, so the comparison is gated on
// __x86_64__ and skipped elsewhere.
#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>

#include "golden_dump.h"
#include "obs/jsonl_writer.h"
#include "policy/maid_policy.h"
#include "policy/pdc_policy.h"
#include "policy/read_policy.h"
#include "sim/array_sim.h"
#include "workload/synthetic.h"

namespace pr {
namespace {

using golden::dump_result;
using golden::fnv1a;

struct GoldenHashes {
  std::uint64_t result;
  std::uint64_t jsonl;
};

template <typename PolicyT>
GoldenHashes run_golden() {
  SyntheticWorkloadConfig wc;
  wc.file_count = 400;
  wc.request_count = 8000;
  wc.mean_interarrival = Seconds{0.35};
  wc.seed = 20260805;
  const SyntheticWorkload w = generate_workload(wc);

  SimConfig sc;
  sc.disk_params = two_speed_cheetah();
  sc.disk_count = 8;
  sc.epoch = Seconds{600.0};
  std::ostringstream jsonl;
  JsonlTraceWriter writer(jsonl);
  PolicyT policy;
  const SimResult result = run_simulation(sc, w.files, w.trace, policy, &writer);
  return GoldenHashes{fnv1a(dump_result(result)), fnv1a(jsonl.str())};
}

#if defined(__x86_64__) || defined(_M_X64)

// Captured at the seed commit; see file comment.
// The result hashes were re-pinned once, when the retired event-queue
// scheduler's always-zero staleness counter left the dump (the only line
// that moved); the JSONL hashes never moved.
TEST(SeedLayoutGolden, ReadPolicyMatchesSeedBytes) {
  const GoldenHashes h = run_golden<ReadPolicy>();
  EXPECT_EQ(h.result, 16456408732294645091ULL) << "result dump hash drifted";
  EXPECT_EQ(h.jsonl, 17343312274707228058ULL) << "JSONL stream hash drifted";
}

TEST(SeedLayoutGolden, MaidPolicyMatchesSeedBytes) {
  const GoldenHashes h = run_golden<MaidPolicy>();
  EXPECT_EQ(h.result, 186518045302536557ULL) << "result dump hash drifted";
  EXPECT_EQ(h.jsonl, 7344537821866690566ULL) << "JSONL stream hash drifted";
}

TEST(SeedLayoutGolden, PdcPolicyMatchesSeedBytes) {
  const GoldenHashes h = run_golden<PdcPolicy>();
  EXPECT_EQ(h.result, 3724629508351883107ULL) << "result dump hash drifted";
  EXPECT_EQ(h.jsonl, 6470625918837204041ULL) << "JSONL stream hash drifted";
}

#else

TEST(SeedLayoutGolden, SkippedOffX86) {
  GTEST_SKIP() << "seed hashes are x86-64 baseline-ISA artifacts";
}

#endif

}  // namespace
}  // namespace pr
