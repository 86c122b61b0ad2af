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

ParityScheme::ParityScheme(std::size_t disk_count, std::size_t group)
    : disks_(disk_count), group_(resolve_group(group, disk_count)) {}

bool ParityScheme::degraded_read(ArrayContext& ctx, const FaultState& faults,
                                 FileId file, Bytes bytes, DiskId failed,
                                 std::vector<StripeChunk>& serves) {
  (void)ctx;
  for (std::size_t j = 0; j + 1 < group_; ++j) {
    const DiskId p = partner(failed, file, j);
    // A second failure among the partners makes the stripe unrecoverable.
    if (faults.failed(p)) return false;
    serves.push_back(StripeChunk{p, bytes});
  }
  return true;
}

void ParityScheme::rebuild_sources(const FaultState& faults, DiskId failed,
                                   std::uint64_t step,
                                   std::vector<DiskId>& sources) const {
  for (std::size_t j = 0; j + 1 < group_; ++j) {
    const DiskId p = partner(failed, step, j);
    if (!faults.failed(p)) sources.push_back(p);
  }
}

// --- RAID-5 ------------------------------------------------------------

Raid5Scheme::Raid5Scheme(std::size_t disk_count, std::size_t group)
    : ParityScheme(disk_count, group) {
  // validate_redundancy() guards the factory path; direct construction
  // must satisfy the same geometry, or partner() indexes past the array
  // (group stride) and divides by a degenerate group.
  PR_PRECONDITION(group_ >= 2 && group_ <= disks_,
                  "Raid5Scheme: group size must be in [2, disk_count]");
  PR_PRECONDITION(disks_ % group_ == 0,
                  "Raid5Scheme: group must divide the array evenly");
}

DiskId Raid5Scheme::partner(DiskId failed, std::uint64_t salt,
                            std::size_t j) const {
  (void)salt;
  // The j-th member of failed's group, skipping failed itself.
  const std::size_t member = (failed / group_) * group_ + j;
  return static_cast<DiskId>(member >= failed ? member + 1 : member);
}

// --- Declustered parity ------------------------------------------------

DeclusteredScheme::DeclusteredScheme(std::size_t disk_count, std::size_t group)
    : ParityScheme(disk_count, group) {
  // partner() rotates over disks_ - 1 survivors: a group wider than the
  // array or a single-disk array makes that modulus degenerate.
  PR_PRECONDITION(group_ >= 2 && group_ <= disks_,
                  "DeclusteredScheme: group size must be in [2, disk_count]");
}

DiskId DeclusteredScheme::partner(DiskId failed, std::uint64_t salt,
                                  std::size_t j) const {
  // The salt rotates the partners: every file's parity partners (and every
  // rebuild step's sources) are a different rotation, which is exactly the
  // load-spreading property.
  const std::size_t offset = 1 + ((salt + j) % (disks_ - 1));
  return static_cast<DiskId>((failed + offset) % disks_);
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
