#include "policy/replication.h"

#include <algorithm>
#include <numeric>
#include <stdexcept>

namespace pr {

ReplicatedReadPolicy::ReplicatedReadPolicy(ReplicationConfig config)
    : config_(config), base_(config.read) {
  if (config_.replicas < 2) {
    throw std::invalid_argument(
        "ReplicatedReadPolicy: replicas must be >= 2 (primary + copies)");
  }
  if (config_.top_files == 0) {
    throw std::invalid_argument("ReplicatedReadPolicy: top_files == 0");
  }
}

std::vector<DiskId> ReplicatedReadPolicy::replica_targets(
    const ArrayContext& ctx, FileId f) const {
  // Copies go to hot-zone disks other than the primary, chosen by a
  // deterministic stride from the file id so replicas spread evenly.
  const std::size_t hot = base_.zoning().hot_disks;
  const DiskId primary = ctx.location(f);
  std::vector<DiskId> targets;
  if (hot <= 1) return targets;
  const std::size_t wanted = std::min(config_.replicas - 1, hot - 1);
  std::size_t cursor = f % hot;
  while (targets.size() < wanted) {
    const auto candidate = static_cast<DiskId>(cursor % hot);
    ++cursor;
    if (candidate == primary) continue;
    if (std::find(targets.begin(), targets.end(), candidate) !=
        targets.end()) {
      continue;
    }
    targets.push_back(candidate);
  }
  return targets;
}

void ReplicatedReadPolicy::build_replicas(
    ArrayContext& ctx, const std::vector<FileId>& hottest) {
  std::unordered_map<FileId, std::vector<DiskId>> next;
  for (FileId f : hottest) {
    const auto targets = replica_targets(ctx, f);
    if (targets.empty()) continue;
    const auto prior = replicas_.find(f);
    for (DiskId target : targets) {
      const bool already =
          prior != replicas_.end() &&
          std::find(prior->second.begin(), prior->second.end(), target) !=
              prior->second.end();
      if (!already) {
        // New copy: background read on the primary + write on the target.
        ctx.background_copy(ctx.location(f), target,
                            ctx.files().by_id(f).size);
        ctx.bump(h_copy_);
      }
    }
    next.emplace(f, targets);
  }
  replicas_ = std::move(next);
}

void ReplicatedReadPolicy::initialize(ArrayContext& ctx) {
  base_.initialize(ctx);
  h_copy_ = ctx.counters().intern("replication.copy");
  h_offloaded_ = ctx.counters().intern("replication.offloaded_read");
  // Initial replica set from the file set's intended rates. Only the
  // top_files prefix matters; the (rate desc, id asc) comparator matches
  // what stable_sort over an iota produced, so partial_sort yields the
  // identical prefix.
  std::vector<FileId> ids(ctx.files().size());
  std::iota(ids.begin(), ids.end(), FileId{0});
  const std::size_t top = std::min<std::size_t>(config_.top_files, ids.size());
  std::partial_sort(ids.begin(), ids.begin() + top, ids.end(),
                    [&](FileId a, FileId b) {
                      const double ra = ctx.files().by_id(a).access_rate;
                      const double rb = ctx.files().by_id(b).access_rate;
                      if (ra != rb) return ra > rb;
                      return a < b;
                    });
  ids.resize(top);
  build_replicas(ctx, ids);
}

DiskId ReplicatedReadPolicy::route(ArrayContext& ctx, const Request& req) {
  const auto it = replicas_.find(req.file);
  const DiskId primary = ctx.location(req.file);
  if (it == replicas_.end()) return primary;
  // Pick the copy whose disk frees up first (join-shortest-workload).
  DiskId best = primary;
  Seconds best_ready = ctx.disk(primary).ready_time();
  for (DiskId d : it->second) {
    const Seconds ready = ctx.disk(d).ready_time();
    if (ready < best_ready) {
      best = d;
      best_ready = ready;
    }
  }
  if (best != primary) ctx.bump(h_offloaded_);
  return best;
}

void ReplicatedReadPolicy::after_serve(ArrayContext& ctx, const Request& req,
                                       DiskId d) {
  base_.after_serve(ctx, req, d);
}

bool ReplicatedReadPolicy::ReplicaScheme::degraded_read(
    ArrayContext& ctx, const FaultState& faults, FileId file, Bytes bytes,
    DiskId failed, std::vector<StripeChunk>& serves) {
  // Consider every copy — the primary plus replicas — skipping failed
  // disks; among the live ones pick the earliest-ready (the same
  // join-shortest-workload rule route() uses, lowest id on ties).
  DiskId best = kInvalidDisk;
  Seconds best_ready = kNeverTime;
  const auto consider = [&](DiskId d) {
    if (d == failed || faults.failed(d)) return;
    const Seconds ready = ctx.disk(d).ready_time();
    if (best == kInvalidDisk || ready < best_ready ||
        (ready == best_ready && d < best)) {
      best = d;
      best_ready = ready;
    }
  };
  consider(ctx.location(file));
  const auto it = owner_->replicas_.find(file);
  if (it != owner_->replicas_.end()) {
    for (const DiskId d : it->second) consider(d);
  }
  if (best == kInvalidDisk) return false;
  // The handle is interned here, on the first degraded read, not in
  // initialize(): eager interning would add a zero-valued counter to
  // every fault-free report and break their byte-identity.
  if (!owner_->h_degraded_interned_) {
    owner_->h_degraded_ =
        ctx.counters().intern("replication.degraded_read");
    owner_->h_degraded_interned_ = true;
  }
  ctx.bump(owner_->h_degraded_);
  serves.push_back(StripeChunk{best, bytes});
  return true;
}

void ReplicatedReadPolicy::on_epoch(ArrayContext& ctx, Seconds now) {
  // Base READ re-ranks and migrates first; replica sets are then rebuilt
  // against the post-migration placement.
  const auto& counts = ctx.epoch_access_counts();
  base_.on_epoch(ctx, now);
  if (ctx.epoch_requests() == 0) return;
  // Bounded selection of the top_files prefix, same order as the former
  // full stable_sort (count desc, id asc).
  std::vector<FileId> ids(counts.size());
  std::iota(ids.begin(), ids.end(), FileId{0});
  const std::size_t top = std::min<std::size_t>(config_.top_files, ids.size());
  std::partial_sort(ids.begin(), ids.begin() + top, ids.end(),
                    [&](FileId a, FileId b) {
                      if (counts[a] != counts[b]) return counts[a] > counts[b];
                      return a < b;
                    });
  ids.resize(top);
  build_replicas(ctx, ids);
}

bool ReplicatedReadPolicy::allow_spin_down(ArrayContext& ctx, DiskId d,
                                           Seconds now) {
  return base_.allow_spin_down(ctx, d, now);
}

}  // namespace pr
