#include "redundancy/scheme.h"

#include <stdexcept>
#include <string>

#include "util/contracts.h"

namespace pr {

namespace {

/// Resolve group = 0 ("whole array") to the disk count.
std::size_t resolve_group(std::size_t group, std::size_t disk_count) {
  return group == 0 ? disk_count : group;
}

}  // namespace

// --- shared parity reads ------------------------------------------------

ParityScheme::ParityScheme(std::size_t disk_count, std::size_t group,
                           Partners partners)
    : disks_(disk_count),
      group_(resolve_group(group, disk_count)),
      partners_(partners) {}

template <typename Visit>
bool ParityScheme::each_partner(DiskId failed, std::uint64_t salt,
                                Visit visit) const {
  if (partners_ == Partners::kGroup) {
    // The members of failed's group in disk order, skipping failed.
    const std::size_t base = failed / group_ * group_;
    for (std::size_t m = base; m < base + group_; ++m) {
      if (m != failed && !visit(static_cast<DiskId>(m))) return false;
    }
    return true;
  }
  // Partner j is failed + 1 + (salt + j) mod ring, mod n, with salt + j
  // taken in 64-bit arithmetic. Walk s = salt + j and its residue `off`
  // together: a step adds one to both, except that s wrapping past 2^64
  // restarts the residue at 0 mod ring.
  const std::size_t ring = disks_ - 1;
  std::uint64_t s = salt;
  std::size_t off = salt % ring;
  for (std::size_t j = 0; j + 1 < group_; ++j) {
    std::size_t p = failed + 1 + off;
    if (p >= disks_) p -= disks_;
    if (!visit(static_cast<DiskId>(p))) return false;
    if (++s == 0 || ++off == ring) off = 0;
  }
  return true;
}

bool ParityScheme::degraded_read(ArrayContext& ctx, const FaultState& faults,
                                 FileId file, Bytes bytes, DiskId failed,
                                 std::vector<StripeChunk>& serves) {
  (void)ctx;
  return each_partner(failed, file, [&](DiskId p) {
    // A second failure among the partners makes the stripe unrecoverable.
    if (faults.failed(p)) return false;
    serves.push_back(StripeChunk{p, bytes});
    return true;
  });
}

void ParityScheme::rebuild_sources(const FaultState& faults, DiskId failed,
                                   std::uint64_t step,
                                   std::vector<DiskId>& sources) const {
  each_partner(failed, step, [&](DiskId p) {
    if (!faults.failed(p)) sources.push_back(p);
    return true;
  });
}

// --- RAID-5 ------------------------------------------------------------

Raid5Scheme::Raid5Scheme(std::size_t disk_count, std::size_t group)
    : ParityScheme(disk_count, group, Partners::kGroup) {
  // validate_redundancy() guards the factory path; direct construction
  // must satisfy the same geometry, or a group would run past the array
  // (group stride) or hold no partners (degenerate group).
  PR_PRECONDITION(group_ >= 2 && group_ <= disks_,
                  "Raid5Scheme: group size must be in [2, disk_count]");
  PR_PRECONDITION(disks_ % group_ == 0,
                  "Raid5Scheme: group must divide the array evenly");
}

// --- Declustered parity ------------------------------------------------

DeclusteredScheme::DeclusteredScheme(std::size_t disk_count, std::size_t group)
    : ParityScheme(disk_count, group, Partners::kRing) {
  // The ring holds the disks_ - 1 survivors: a group wider than the array
  // or a single-disk array leaves it degenerate.
  PR_PRECONDITION(group_ >= 2 && group_ <= disks_,
                  "DeclusteredScheme: group size must be in [2, disk_count]");
}

// --- validation & factory ----------------------------------------------

void validate_redundancy(const RedundancyConfig& config,
                         std::size_t disk_count) {
  if (config.kind == RedundancyKind::kNone) return;
  const std::size_t g = resolve_group(config.group, disk_count);
  if (g < 2 || g > disk_count) {
    throw std::invalid_argument(
        "redundancy: group size must be in [2, disk_count], got " +
        std::to_string(g) + " over " + std::to_string(disk_count) + " disks");
  }
  if (config.kind == RedundancyKind::kRaid5 && disk_count % g != 0) {
    throw std::invalid_argument(
        "redundancy: raid5 group " + std::to_string(g) +
        " does not divide the array of " + std::to_string(disk_count));
  }
  if (config.rebuild) {
    if (!(config.rebuild_mbps > 0.0)) {
      throw std::invalid_argument("redundancy: rebuild_mbps must be > 0");
    }
    if (config.rebuild_chunk == 0) {
      throw std::invalid_argument("redundancy: rebuild_chunk must be > 0");
    }
  }
}

std::unique_ptr<RedundancyScheme> make_scheme(const RedundancyConfig& config,
                                              std::size_t disk_count) {
  validate_redundancy(config, disk_count);
  switch (config.kind) {
    case RedundancyKind::kNone:
      return nullptr;
    case RedundancyKind::kRaid5:
      return std::make_unique<Raid5Scheme>(disk_count, config.group);
    case RedundancyKind::kDeclustered:
      return std::make_unique<DeclusteredScheme>(disk_count, config.group);
  }
  return nullptr;
}

}  // namespace pr
