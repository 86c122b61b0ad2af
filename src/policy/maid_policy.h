// maid_policy.h — MAID: Massive Array of Idle Disks (Colarelli & Grunwald,
// SC'02 — the paper's [4]), in the 2-speed-disk variant the paper evaluates
// ("when utilizing multi-speed disks, MAID and PDC become hybrid
// techniques", §2).
//
// A front set of *cache disks* always runs at high speed; the remaining
// *data disks* hold the permanent copies and rest at low speed. A request
// that hits the cache is served by the caching disk; a miss is served by
// the data disk (spun up to high to serve) and the file is then copied to
// a cache disk (LRU replacement under a byte-capacity budget). Idle data
// disks spin back down after the idleness threshold.
#pragma once

#include <cstdint>
#include <list>
#include <unordered_map>
#include <vector>

#include "redundancy/scheme.h"
#include "sim/array_sim.h"

namespace pr {

struct MaidConfig {
  /// Number of cache disks; 0 means max(1, disk_count/4) (the MAID paper's
  /// "small number of always-on drives").
  std::size_t cache_disks = 0;
  /// Idleness threshold for data-disk spin-down. The paper leaves the
  /// thresholds unspecified; this default is calibrated on the WC98-like
  /// day so MAID's most-cycled data disk lands in the ~80 transitions/day
  /// regime that reproduces the paper's reported READ-over-MAID
  /// reliability margin (see EXPERIMENTS.md).
  Seconds idleness_threshold{15.0};
  /// Cache byte budget as a fraction of the cache disks' raw capacity.
  double cache_capacity_fraction = 1.0;
};

class MaidPolicy final : public Policy {
 public:
  explicit MaidPolicy(MaidConfig config = {});

  [[nodiscard]] std::string name() const override { return "MAID"; }

  void initialize(ArrayContext& ctx) override;
  DiskId route(ArrayContext& ctx, const Request& req) override;
  void after_serve(ArrayContext& ctx, const Request& req, DiskId d) override;
  /// The cache copies exposed through the redundancy seam: a degraded
  /// read redirects to a cached copy on a live cache disk, else to the
  /// home disk when the cache copy's disk failed; lost when both the home
  /// disk and any cache copy are down.
  [[nodiscard]] RedundancyScheme* redundancy() override { return &scheme_; }

  [[nodiscard]] std::size_t cache_disk_count() const { return cache_disks_; }
  [[nodiscard]] bool is_cache_disk(DiskId d) const { return d < cache_disks_; }
  [[nodiscard]] bool is_cached(FileId f) const {
    return cache_index_.contains(f);
  }

 private:
  struct CacheEntry {
    FileId file = kInvalidFile;
    DiskId disk = kInvalidDisk;
    Bytes bytes = 0;
  };

  /// Copy-based scheme over the cache index (see redundancy()).
  class CacheScheme final : public RedundancyScheme {
   public:
    explicit CacheScheme(MaidPolicy& owner) : owner_(&owner) {}
    [[nodiscard]] std::string name() const override { return "maid-cache"; }
    [[nodiscard]] bool degraded_read(
        ArrayContext& ctx, const FaultState& faults, FileId file, Bytes bytes,
        DiskId failed, std::vector<StripeChunk>& serves) override;

   private:
    MaidPolicy* owner_;
  };

  void admit(ArrayContext& ctx, FileId file, Bytes bytes, DiskId home);
  void evict_lru(ArrayContext& ctx);

  MaidConfig config_;
  CacheScheme scheme_{*this};
  std::size_t cache_disks_ = 0;
  Bytes cache_budget_ = 0;
  Bytes cache_used_ = 0;
  std::size_t next_cache_disk_ = 0;  // round-robin fill target

  // LRU: most recent at front. The index maps file -> list node.
  std::list<CacheEntry> lru_;
  std::unordered_map<FileId, std::list<CacheEntry>::iterator> cache_index_;

  bool last_was_hit_ = false;

  // Counter handles interned in initialize(); route()/after_serve() run
  // once per request, so they must not pay a string-keyed map lookup.
  CounterRegistry::Handle h_hit_ = 0;
  CounterRegistry::Handle h_miss_ = 0;
  CounterRegistry::Handle h_fill_ = 0;
  CounterRegistry::Handle h_evict_ = 0;
  // Interned lazily on the first degraded read — interning in
  // initialize() would add a zero-valued counter to every fault-free
  // report and break their byte-identity.
  CounterRegistry::Handle h_degraded_ = 0;
  bool h_degraded_interned_ = false;
};

}  // namespace pr
