#include "policy/maid_policy.h"

#include <algorithm>
#include <stdexcept>

namespace pr {

MaidPolicy::MaidPolicy(MaidConfig config) : config_(config) {
  if (!(config_.idleness_threshold > Seconds{0.0})) {
    throw std::invalid_argument("MaidPolicy: H must be > 0");
  }
  if (!(config_.cache_capacity_fraction > 0.0) ||
      config_.cache_capacity_fraction > 1.0) {
    throw std::invalid_argument(
        "MaidPolicy: cache_capacity_fraction outside (0, 1]");
  }
}

void MaidPolicy::initialize(ArrayContext& ctx) {
  h_hit_ = ctx.counters().intern("maid.cache_hit");
  h_miss_ = ctx.counters().intern("maid.cache_miss");
  h_fill_ = ctx.counters().intern("maid.cache_fill");
  h_evict_ = ctx.counters().intern("maid.cache_evict");
  const std::size_t n = ctx.disk_count();
  cache_disks_ = config_.cache_disks != 0 ? config_.cache_disks
                                          : std::max<std::size_t>(1, n / 4);
  if (cache_disks_ >= n) {
    throw std::invalid_argument(
        "MaidPolicy: need at least one data disk (cache_disks < disk_count)");
  }
  cache_budget_ = static_cast<Bytes>(
      config_.cache_capacity_fraction *
      static_cast<double>(cache_disks_ *
                          ctx.config().disk_params.capacity));

  for (DiskId d = 0; d < n; ++d) {
    DpmConfig dpm;
    if (is_cache_disk(d)) {
      ctx.set_initial_speed(d, DiskSpeed::kHigh);  // always-on workhorses
    } else {
      ctx.set_initial_speed(d, DiskSpeed::kLow);   // resting until a miss
      dpm.spin_down_when_idle = true;
      dpm.idleness_threshold = config_.idleness_threshold;
      dpm.spin_up_to_serve = true;
    }
    ctx.set_dpm(d, dpm);
  }

  // Permanent copies round-robin over the data disks (size order, like the
  // other policies' initial layouts).
  const auto order = ctx.files().ids_by_size_ascending();
  const std::size_t data_disks = n - cache_disks_;
  for (std::size_t i = 0; i < order.size(); ++i) {
    ctx.place(order[i],
              static_cast<DiskId>(cache_disks_ + i % data_disks));
  }
}

DiskId MaidPolicy::route(ArrayContext& ctx, const Request& req) {
  const auto it = cache_index_.find(req.file);
  if (it != cache_index_.end()) {
    // Hit: refresh LRU position, serve from the caching disk.
    lru_.splice(lru_.begin(), lru_, it->second);
    ctx.bump(h_hit_);
    last_was_hit_ = true;
    return it->second->disk;
  }
  ctx.bump(h_miss_);
  last_was_hit_ = false;
  return ctx.location(req.file);
}

void MaidPolicy::after_serve(ArrayContext& ctx, const Request& req,
                             DiskId served) {
  if (last_was_hit_) return;
  // Miss path: copy the file onto a cache disk so later accesses hit.
  admit(ctx, req.file, req.size, served);
}

bool MaidPolicy::CacheScheme::degraded_read(
    ArrayContext& ctx, const FaultState& faults, FileId file, Bytes bytes,
    DiskId failed, std::vector<StripeChunk>& serves) {
  // route() already chose: a failed cache disk on a hit, or the failed
  // home disk on a miss. Fall back to whichever copy is still live.
  DiskId alt = kInvalidDisk;
  const auto it = owner_->cache_index_.find(file);
  if (it != owner_->cache_index_.end() && it->second->disk != failed &&
      !faults.failed(it->second->disk)) {
    alt = it->second->disk;
  } else {
    const DiskId home = ctx.location(file);
    if (home != failed && !faults.failed(home)) alt = home;
  }
  if (alt == kInvalidDisk) return false;
  // The serve comes from an existing copy — suppress the after_serve
  // re-admission a miss would trigger. The handle is interned here, on
  // the first degraded read, not in initialize(): eager interning would
  // add a zero counter to fault-free reports.
  owner_->last_was_hit_ = true;
  if (!owner_->h_degraded_interned_) {
    owner_->h_degraded_ = ctx.counters().intern("maid.degraded_read");
    owner_->h_degraded_interned_ = true;
  }
  ctx.bump(owner_->h_degraded_);
  serves.push_back(StripeChunk{alt, bytes});
  return true;
}

void MaidPolicy::admit(ArrayContext& ctx, FileId file, Bytes bytes,
                       DiskId home) {
  if (bytes > cache_budget_) return;  // larger than the whole cache
  while (cache_used_ + bytes > cache_budget_) evict_lru(ctx);

  const auto target =
      static_cast<DiskId>(next_cache_disk_ % cache_disks_);
  ++next_cache_disk_;
  ctx.background_copy(home, target, bytes);
  ctx.bump(h_fill_);

  lru_.push_front(CacheEntry{file, target, bytes});
  cache_index_[file] = lru_.begin();
  cache_used_ += bytes;
}

void MaidPolicy::evict_lru(ArrayContext& ctx) {
  if (lru_.empty()) {
    throw std::logic_error("MaidPolicy: eviction from empty cache");
  }
  const CacheEntry victim = lru_.back();
  lru_.pop_back();
  cache_index_.erase(victim.file);
  cache_used_ -= victim.bytes;
  ctx.bump(h_evict_);
}

}  // namespace pr
