#include "policy/online_read_policy.h"

#include <algorithm>
#include <functional>
#include <stdexcept>

#include "control/control_loop.h"
#include "policy/zoning.h"

namespace pr {

OnlineReadPolicy::OnlineReadPolicy(OnlineReadConfig config)
    : ReadPolicy(config.read), online_(config),
      estimator_(config.read.theta_b) {
  if (online_.decay_shift >= 64) {
    throw std::invalid_argument("OnlineReadPolicy: decay_shift >= 64");
  }
}

void OnlineReadPolicy::initialize(ArrayContext& ctx) {
  ReadPolicy::initialize(ctx);
  counts_.assign(ctx.files().size(), 0);
  served_ = 0;
  bar_ = 0;
  online_promotions_ = 0;
  warmed_ = false;
  h_promotions_ = ctx.counters().intern("online.promotions");
  h_demotions_ = ctx.counters().intern("online.demotions");
}

void OnlineReadPolicy::after_serve(ArrayContext& ctx, const Request& req,
                                   DiskId d) {
  (void)d;
  ++served_;
  const std::uint64_t count = ++counts_[req.file];
  if (warmed_ && !hot_file_[req.file] &&
      count > bar_ + online_.promote_margin) {
    // Promote now: the migration's background I/O lands before the
    // simulator arms this request's idle checks, the same window MAID
    // uses for cache fills.
    ctx.migrate(req.file, next_hot_disk());
    hot_file_[req.file] = 1;
    ++online_promotions_;
    ctx.bump(h_promotions_);
  }
}

void OnlineReadPolicy::on_epoch(ArrayContext& ctx, Seconds now) {
  epoch_migrations_ = 0;
  if (served_ > 0) {
    std::size_t cut = 0;
    const RebalanceCounts moved = rebalance(ctx, counts_, &cut);
    if (moved.demotions > 0) ctx.bump(h_demotions_, moved.demotions);
    const std::uint64_t weakest = cut > 0 ? counts_[rank_scratch_[cut - 1]] : 0;
    if (online_.decay_shift > 0) {
      for (auto& c : counts_) c >>= online_.decay_shift;
    }
    // The bar is the decayed count of the weakest member of the new top-k:
    // a cold file beating it (plus margin) mid-epoch would have made the
    // cut, so it is promoted without waiting for the boundary. The bar
    // decays by *ceiling* shift while the counts decay by floor shift:
    // floor collapses up to 2^decay_shift distinct pre-decay counts into
    // one value, so a floor-decayed bar could tie with a file that was
    // strictly below the cut and over-promote it after a single serve.
    // a < b implies (a >> s) < ceil(b >> s), so the ceiling bar keeps the
    // boundary ranking authoritative between epochs.
    const std::uint32_t s = online_.decay_shift;
    bar_ = s > 0 ? (weakest >> s) +
                       ((weakest & ((std::uint64_t{1} << s) - 1)) != 0 ? 1 : 0)
                 : weakest;
    warmed_ = true;
  }
  adapt_thresholds(ctx, now);
}

int OnlineReadPolicy::on_control(ArrayContext& ctx,
                                 const ControlDecision& decision,
                                 Seconds now) {
  (void)now;
  if (!warmed_ || decision.hot_delta == 0) return 0;
  estimate_ = estimator_.estimate(counts_);

  const std::size_t cur = zoning_.hot_disks;
  std::size_t target =
      decision.hot_delta > 0
          ? cur + static_cast<std::size_t>(decision.hot_delta)
          : cur - std::min<std::size_t>(
                      cur, static_cast<std::size_t>(-decision.hot_delta));
  if (decision.hot_delta > 0) {
    // Growth guardrail: re-run the Eq. 4/5 zoning split under the online
    // θ̂ over the decayed counts. The controller may not widen the hot
    // zone past what the observed skew justifies (and an all-zero window
    // justifies nothing).
    if (estimate_.active_files == 0) return 0;
    load_scratch_.assign(counts_.begin(), counts_.end());
    std::sort(load_scratch_.begin(), load_scratch_.end(),
              std::greater<>());
    const ZoningDecision justified =
        compute_zoning(load_scratch_, ctx.disk_count(), estimate_.theta);
    if (cur >= justified.hot_disks) return 0;
    target = std::min(target, justified.hot_disks);
  }
  return resize_hot_zone(ctx, target);
}

}  // namespace pr
