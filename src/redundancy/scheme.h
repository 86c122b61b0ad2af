// scheme.h — the redundancy seam.
//
// A RedundancyScheme answers one question for the request planner
// (sim/planner.h): when a chunk's disk is held down by an injected
// fail-stop fault, which live reads replace it? The scheme appends the
// replacement serves, or reports the data lost:
//
//   a live copy    — a whole copy exists somewhere (a replica set, the MAID
//                    cache): one read of the chunk on that disk, booked as
//                    redirected. ReplicatedReadPolicy and MaidPolicy expose
//                    these through Policy::redundancy().
//   survivor reads — parity instead of a copy: one costed read of the
//                    chunk on each of the g−1 surviving stripe units
//                    (spin-ups and all), booked as reconstructed; the
//                    request completes when the slowest survivor finishes.
//                    RAID-5 and declustered parity (parity() is true).
//
// Everything else is a lost request: no scheme (RAID-0), a second failure
// inside the parity group, or an answer naming a failed or nonexistent
// disk.
//
// Parity schemes additionally drive the RebuildScheduler (rebuild.h): they
// name the source disks for each rebuild step and decide which disk pairs
// constitute data loss when failures overlap.
//
// Resolution order in ArraySimulator: a parity scheme configured via
// SimConfig::redundancy wins; otherwise the policy's own scheme (replica /
// cache copies); otherwise degraded requests are lost.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "fault/fault_state.h"
#include "redundancy/redundancy_config.h"
#include "sim/array_sim.h"

namespace pr {

class RedundancyScheme {
 public:
  virtual ~RedundancyScheme() = default;

  [[nodiscard]] virtual std::string name() const = 0;

  /// `failed` holds `bytes` of `file` and is out of service. Append the
  /// serves that replace it: one live copy, or a read of `bytes` on each
  /// of the g−1 surviving stripe units (per `faults`). Return false when
  /// the data is lost. The planner validates the answer and books it.
  [[nodiscard]] virtual bool degraded_read(
      ArrayContext& ctx, const FaultState& faults, FileId file, Bytes bytes,
      DiskId failed, std::vector<StripeChunk>& serves) = 0;

  /// True for parity organizations — enables the rebuild engine and the
  /// data-loss bookkeeping. Copy-based schemes (replicas, MAID) return
  /// false: their repair story is the policy's own copy management.
  [[nodiscard]] virtual bool parity() const { return false; }

  /// Source disks for rebuild step `step` of `failed` (parity schemes
  /// only). Append live disks to `sources`; members failed in `faults` are
  /// simply skipped — the rebuild proceeds on whatever survives.
  virtual void rebuild_sources(const FaultState& faults, DiskId failed,
                               std::uint64_t step,
                               std::vector<DiskId>& sources) const {
    (void)faults;
    (void)failed;
    (void)step;
    (void)sources;
  }

  /// True when concurrent failures of `a` and `b` lose data under this
  /// layout (same RAID-5 group; any pair for declustered parity, where
  /// some stripe always spans both).
  [[nodiscard]] virtual bool loses_data(DiskId a, DiskId b) const {
    (void)a;
    (void)b;
    return false;
  }
};

/// The parity layouts' shared shape: a chunk on `failed` is rebuilt from
/// its g−1 partner disks for a stripe salt — the file id for a degraded
/// read, the step index for a rebuild step — so a degraded read and a
/// rebuild step of the same salt read the same disks.
///
/// A read walks the partners directly, with no per-partner call or
/// division: the members of failed's group (RAID-5), or a ring of the
/// other disks entered at salt mod (n−1) (declustered parity).
class ParityScheme : public RedundancyScheme {
 public:
  [[nodiscard]] bool degraded_read(ArrayContext& ctx, const FaultState& faults,
                                   FileId file, Bytes bytes, DiskId failed,
                                   std::vector<StripeChunk>& serves) final;
  [[nodiscard]] bool parity() const final { return true; }
  void rebuild_sources(const FaultState& faults, DiskId failed,
                       std::uint64_t step,
                       std::vector<DiskId>& sources) const final;

  [[nodiscard]] std::size_t group() const { return group_; }

 protected:
  /// Which partners a layout reads: the other members of failed's group,
  /// whatever the salt, or g−1 consecutive disks of the ring of the n−1
  /// others, rotated by the salt.
  enum class Partners { kGroup, kRing };

  /// `group` = 0 means the whole array.
  ParityScheme(std::size_t disk_count, std::size_t group, Partners partners);

  std::size_t disks_;
  std::size_t group_;

 private:
  /// Call `visit(p)` for partner j = 0 … g−2 of `failed` for `salt`, in
  /// order, stopping early (and returning false) when `visit` does.
  template <typename Visit>
  bool each_partner(DiskId failed, std::uint64_t salt, Visit visit) const;

  Partners partners_;
};

/// RAID-5: rotated parity over fixed consecutive groups of `group` disks
/// (disks [k·g, (k+1)·g)). One failure per group is survivable — a
/// degraded read reconstructs from the g−1 surviving group members (the
/// partners, in disk order, whatever the salt); a second failure in the
/// same group is data loss.
class Raid5Scheme final : public ParityScheme {
 public:
  Raid5Scheme(std::size_t disk_count, std::size_t group);

  [[nodiscard]] std::string name() const override { return "raid5"; }
  [[nodiscard]] bool loses_data(DiskId a, DiskId b) const override {
    return a / group_ == b / group_;
  }
};

/// Declustered parity: each stripe's g−1 partner units are spread over
/// the whole array (partner j of disk d for stripe salt s is
/// (d + 1 + (s + j) mod (n−1)) mod n — distinct offsets, never d), so
/// degraded reads and rebuild I/O fan out across every surviving disk
/// instead of hammering one group. The price is vulnerability: any two
/// concurrent failures share some stripe, so every overlapping pair is
/// data loss (the classic declustering trade-off — faster rebuild,
/// larger loss exposure).
class DeclusteredScheme final : public ParityScheme {
 public:
  DeclusteredScheme(std::size_t disk_count, std::size_t group);

  [[nodiscard]] std::string name() const override { return "declustered"; }
  [[nodiscard]] bool loses_data(DiskId a, DiskId b) const override {
    return a != b;
  }
};

/// Throw std::invalid_argument unless `config` is satisfiable on
/// `disk_count` disks: group size in [2, disk_count] (0 = whole array,
/// needs disk_count ≥ 2), RAID-5 groups dividing the array evenly,
/// positive rebuild rate and chunk.
void validate_redundancy(const RedundancyConfig& config,
                         std::size_t disk_count);

/// Validate and build the configured parity scheme; nullptr for kNone.
[[nodiscard]] std::unique_ptr<RedundancyScheme> make_scheme(
    const RedundancyConfig& config, std::size_t disk_count);

}  // namespace pr
