// Generator golden: pins the exact request stream the synthetic workload
// generator produces for every named workload config, so a change to the
// sampling machinery (Zipf rank lookup, arrival process, burst window)
// that alters even one request shows up as a hash mismatch. Most cases
// drain the first 200k requests of a SyntheticSource and fold (arrival
// bits, file id, size) of every request into an FNV-1a-64 hash; the
// wc98-quiet and media presets hash their whole generated workload (file
// set included) at full size, through the scenario preset lookup.
//
// The arrival times are bit-exact IEEE-754 artifacts of the x86-64
// baseline ISA (std::log / std::sin of the platform libm, no FMA
// contraction), so the comparison is gated on __x86_64__ and skipped
// elsewhere, like the seed-layout golden.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>

#include "exp/scenario.h"
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

/// One request, little-endian (arrival bits: 8 B, file: 4 B, size: 8 B).
void hash_request(std::uint64_t& h, const Request& r) {
  hash_word(h, std::bit_cast<std::uint64_t>(r.arrival.value()), 8);
  hash_word(h, r.file, 4);
  hash_word(h, r.size, 8);
}

/// FNV-1a-64 over the first kGoldenRequests requests of `config`.
std::uint64_t stream_hash(SyntheticWorkloadConfig config) {
  config.request_count = kGoldenRequests;
  SyntheticSource source(config);
  std::uint64_t h = golden::fnv1a({});
  std::size_t n = 0;
  Request r;
  while (source.next(r)) {
    hash_request(h, r);
    ++n;
  }
  EXPECT_EQ(n, kGoldenRequests);
  return h;
}

/// FNV-1a-64 over a whole generated workload at its configured size: each
/// file as (size: 8 B, access-rate bits: 8 B), then every request.
std::uint64_t workload_hash(const SyntheticWorkload& w) {
  std::uint64_t h = golden::fnv1a({});
  for (const FileInfo& f : w.files.files()) {
    hash_word(h, f.size, 8);
    hash_word(h, std::bit_cast<std::uint64_t>(f.access_rate), 8);
  }
  for (const Request& r : w.trace.requests) hash_request(h, r);
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

// Captured from the configs the quiet-day ablations (a wc98-light day at
// a 0.7 s mean inter-arrival, 120,000 requests) and the striping
// extension (its media workload) built by hand before the two presets
// existed; the presets must reproduce them unchanged.
TEST(GeneratorGolden, Wc98QuietPresetFullDay) {
  const SyntheticWorkload w =
      generate_workload(preset_workload_config("wc98-quiet", 42));
  EXPECT_EQ(w.trace.requests.size(), 120'000u);
  EXPECT_EQ(workload_hash(w), 7755515773751861067ULL);
}

TEST(GeneratorGolden, MediaPresetFullDay) {
  const SyntheticWorkload w =
      generate_workload(preset_workload_config("media", 42));
  EXPECT_EQ(w.trace.requests.size(), 60'000u);
  EXPECT_EQ(workload_hash(w), 1144340767137719889ULL);
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
