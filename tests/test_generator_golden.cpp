// Generator golden: pins the exact request stream the synthetic workload
// generator produces for every named workload config, so a change to the
// sampling machinery (Zipf rank lookup, arrival process, burst window)
// that alters even one request shows up as a hash mismatch. Each case
// drains the first 200k requests of a SyntheticSource and folds
// (arrival bits, file id, size) of every request into an FNV-1a-64 hash.
//
// The arrival times are bit-exact IEEE-754 artifacts of the x86-64
// baseline ISA (std::log / std::sin of the platform libm, no FMA
// contraction), so the comparison is gated on __x86_64__ and skipped
// elsewhere, like the seed-layout golden.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>

#include "golden_dump.h"
#include "sim/fleet_sim.h"
#include "workload/synthetic.h"

namespace pr {
namespace {

constexpr std::size_t kGoldenRequests = 200'000;

void hash_word(std::uint64_t& h, std::uint64_t word, int bytes) {
  for (int i = 0; i < bytes; ++i) {
    h ^= (word >> (8 * i)) & 0xFFU;
    h *= 0x100000001B3ULL;
  }
}

/// FNV-1a-64 over the first kGoldenRequests requests of `config`, each
/// request as little-endian (arrival bits: 8 B, file: 4 B, size: 8 B).
std::uint64_t stream_hash(SyntheticWorkloadConfig config) {
  config.request_count = kGoldenRequests;
  SyntheticSource source(config);
  std::uint64_t h = golden::fnv1a({});
  std::size_t n = 0;
  Request r;
  while (source.next(r)) {
    hash_word(h, std::bit_cast<std::uint64_t>(r.arrival.value()), 8);
    hash_word(h, r.file, 4);
    hash_word(h, r.size, 8);
    ++n;
  }
  EXPECT_EQ(n, kGoldenRequests);
  return h;
}

/// The prbench fleet_day shard config (125 shards of 8 disks, a 400-file
/// wc98-light universe per shard, 40 M requests fleet-wide, base seed 42).
SyntheticWorkloadConfig fleet_day_shard(std::uint32_t shard) {
  FleetConfig fleet;
  fleet.shards = 125;
  fleet.workload = worldcup98_light_config(42);
  fleet.workload.request_count = 40'000'000;
  fleet.workload.file_count = 400;
  fleet.base_seed = 42;
  return fleet_shard_workload(fleet, shard);
}

#if defined(__x86_64__) || defined(_M_X64)

// Captured with the full-range binary-search Zipf sampler; any exact
// replacement of the rank lookup must reproduce them unchanged.
TEST(GeneratorGolden, Worldcup98Light) {
  EXPECT_EQ(stream_hash(worldcup98_light_config()), 4736686235349184331ULL);
}

TEST(GeneratorGolden, Worldcup98Heavy) {
  EXPECT_EQ(stream_hash(worldcup98_heavy_config()), 12999688994261518820ULL);
}

TEST(GeneratorGolden, ProxyServer) {
  EXPECT_EQ(stream_hash(proxy_server_config()), 4321831548605578823ULL);
}

TEST(GeneratorGolden, FtpMirror) {
  EXPECT_EQ(stream_hash(ftp_mirror_config()), 4323989948384757138ULL);
}

TEST(GeneratorGolden, EmailServer) {
  EXPECT_EQ(stream_hash(email_server_config()), 14154236368862669780ULL);
}

TEST(GeneratorGolden, FleetDayShard0) {
  EXPECT_EQ(stream_hash(fleet_day_shard(0)), 13527451744977134373ULL);
}

TEST(GeneratorGolden, FleetDayShard124) {
  EXPECT_EQ(stream_hash(fleet_day_shard(124)), 2602456842109721793ULL);
}

#else

TEST(GeneratorGolden, SkippedOffX86) {
  GTEST_SKIP() << "generator hashes are x86-64 baseline-ISA artifacts";
}

#endif

}  // namespace
}  // namespace pr
