// striping.h — RAID-0 striping extension (paper §6 future work: "we
// intend to enable the READ scheme to cooperate with the RAID
// architecture, where files are usually striped across disks... For the
// web server environment, files are usually very small, and thus striping
// is not crucial. However, for large files such as video clips, audio
// segments, and office documents, striping is needed").
//
// StripedStaticPolicy stripes every file across the whole array in
// fixed-size stripe units (default 512 KB, the paper's figure for "a
// normal striping block size") with all disks at high speed — the
// conventional RAID-0 performance layout the paper's §6 contrasts with.
// Files at or below one stripe unit land on a single disk (round-robin by
// first unit), so on a pure web workload this degenerates to Static —
// exactly the paper's point.
//
// RAID-0 keeps no redundant copy, so the policy leaves Policy::redundancy()
// at nullptr: a chunk on a failed disk loses the whole request. Configure
// SimConfig::redundancy with a parity kind to protect the stripes instead.
#pragma once

#include "sim/array_sim.h"

namespace pr {

struct StripingConfig {
  /// Stripe unit (paper §4: "a normal stripping block size 512 KB").
  Bytes stripe_unit = 512 * kKiB;
};

class StripedStaticPolicy final : public Policy {
 public:
  explicit StripedStaticPolicy(StripingConfig config = {});

  [[nodiscard]] std::string name() const override { return "RAID0-Static"; }
  [[nodiscard]] bool striped() const override { return true; }

  void initialize(ArrayContext& ctx) override;
  DiskId route(ArrayContext& ctx, const Request& req) override;
  std::vector<StripeChunk> stripe(ArrayContext& ctx,
                                  const Request& req) override;
  /// Chunk decomposition used by stripe(); exposed for tests. `start`
  /// is the disk holding the file's first stripe unit.
  [[nodiscard]] static std::vector<StripeChunk> chunks_for(
      Bytes size, Bytes unit, DiskId start, std::size_t disk_count);

 private:
  StripingConfig config_;
};

}  // namespace pr
