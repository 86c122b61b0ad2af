// replication.h — hot-file replication extension (paper §6 future work:
// "a high file redistribution cost may arise as the number of file
// migrations increases substantially. One possible solution is to use
// file replication").
//
// ReplicatedReadPolicy wraps READ: the hottest files get extra copies on
// other hot-zone disks (created as background copy I/O), and reads pick
// the least-loaded replica — cutting queueing on the hottest disk and
// cushioning the epoch-migration churn the paper worries about. Replica
// sets are rebuilt at each epoch from observed popularity.
#pragma once

#include <unordered_map>
#include <vector>

#include "policy/read_policy.h"
#include "redundancy/scheme.h"

namespace pr {

struct ReplicationConfig {
  /// Copies per replicated file, including the primary (≥ 2 to replicate).
  std::size_t replicas = 2;
  /// How many of the hottest files get replicas.
  std::size_t top_files = 64;
  ReadConfig read{};
};

class ReplicatedReadPolicy final : public Policy {
 public:
  explicit ReplicatedReadPolicy(ReplicationConfig config = {});

  [[nodiscard]] std::string name() const override { return "READ+replication"; }

  void initialize(ArrayContext& ctx) override;
  DiskId route(ArrayContext& ctx, const Request& req) override;
  void after_serve(ArrayContext& ctx, const Request& req, DiskId d) override;
  void on_epoch(ArrayContext& ctx, Seconds now) override;
  bool allow_spin_down(ArrayContext& ctx, DiskId d, Seconds now) override;
  /// The replica sets exposed through the redundancy seam: a degraded
  /// read redirects to a live copy (or the primary when a replica disk is
  /// the one that failed); lost when every copy is on a failed disk.
  [[nodiscard]] RedundancyScheme* redundancy() override { return &scheme_; }

  [[nodiscard]] std::size_t replicated_files() const {
    return replicas_.size();
  }
  [[nodiscard]] const ReadPolicy& base() const { return base_; }

 private:
  /// Copy-based scheme over the policy's replica map (see redundancy()).
  class ReplicaScheme final : public RedundancyScheme {
   public:
    explicit ReplicaScheme(ReplicatedReadPolicy& owner) : owner_(&owner) {}
    [[nodiscard]] std::string name() const override { return "replica-set"; }
    [[nodiscard]] bool degraded_read(
        ArrayContext& ctx, const FaultState& faults, FileId file, Bytes bytes,
        DiskId failed, std::vector<StripeChunk>& serves) override;

   private:
    ReplicatedReadPolicy* owner_;
  };

  /// (Re)build replica sets for the given hottest files.
  void build_replicas(ArrayContext& ctx, const std::vector<FileId>& hottest);
  [[nodiscard]] std::vector<DiskId> replica_targets(const ArrayContext& ctx,
                                                    FileId f) const;

  ReplicationConfig config_;
  ReadPolicy base_;
  ReplicaScheme scheme_{*this};
  /// file -> extra replica locations (primary lives in the placement map).
  std::unordered_map<FileId, std::vector<DiskId>> replicas_;
  // Counter handles interned in initialize() (route() runs per request).
  CounterRegistry::Handle h_copy_ = 0;
  CounterRegistry::Handle h_offloaded_ = 0;
  // Interned lazily on the first degraded read — interning in
  // initialize() would add a zero-valued counter to every fault-free
  // report and break their byte-identity.
  CounterRegistry::Handle h_degraded_ = 0;
  bool h_degraded_interned_ = false;
};

}  // namespace pr
