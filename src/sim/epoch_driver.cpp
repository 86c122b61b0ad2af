#include "sim/epoch_driver.h"

#include <cmath>
#include <stdexcept>

#include "util/contracts.h"

namespace pr {

EpochDriver::EpochDriver(Seconds epoch, ArrayContext& ctx, Policy& policy)
    : ctx_(ctx), policy_(policy), length_(epoch), next_(epoch),
      h_epochs_(ctx.counters_.intern("sim.epochs")) {
  if (!std::isfinite(epoch.value()) || !(epoch.value() > 0.0)) {
    throw std::invalid_argument(
        "run_simulation: epoch must be finite and > 0");
  }
}

void EpochDriver::open_boundary() {
  ctx_.now_ = next_;
  policy_.on_epoch(ctx_, next_);
  ctx_.counters_.add(h_epochs_);
#if PR_CONTRACTS_ENABLED
  // Epoch boundaries are the quiescent points where every disk's ledger
  // must conserve: each accounted instant lands in exactly one bucket and
  // energy never goes negative (this is what makes the reported
  // energy/AFR trustworthy between goldens).
  for (const Disk& disk : ctx_.disks_) {
    PR_INVARIANT(disk.ledger_conserves(),
                 "epoch boundary: disk ledger does not conserve");
  }
#endif
  if (ctx_.observer_ != nullptr) {
    // After the policy's boundary work (so its migrations precede the
    // epoch-close event) and before the counts reset.
    ctx_.observer_->on_epoch_end(
        EpochEndEvent{next_, index_, ctx_.epoch_requests_});
  }
}

void EpochDriver::close_boundary() {
  ++index_;
  std::fill(ctx_.epoch_counts_.begin(), ctx_.epoch_counts_.end(), 0);
  ctx_.epoch_requests_ = 0;
  next_ += length_;
}

ControlWindow::ControlWindow(const ControlConfig& config, ArrayContext& ctx,
                             Policy& policy)
    : ctx_(ctx), policy_(policy), loop_(config),
      shed_window_(config.admit_window_s),
      h_updates_(ctx.counters_.intern("control.updates")),
      h_shed_(ctx.counters_.intern("control.shed_requests")),
      h_h_scaled_(ctx.counters_.intern("control.h_scaled")),
      h_hot_grows_(ctx.counters_.intern("control.hot_grows")),
      h_hot_shrinks_(ctx.counters_.intern("control.hot_shrinks")),
      h_epoch_scaled_(ctx.counters_.intern("control.epoch_scaled")) {}

// The energy window is the ledger delta between boundaries. Ledgers close
// idle stretches lazily (on the next activity), so a window's spend can
// lag by a trailing idle stretch: deterministic, and it evens out across
// windows. The step runs after the boundary's EpochEndEvent and before the
// counts reset, so the policy's decayed counts it reads are the ones
// on_epoch just produced.
void ControlWindow::step(EpochDriver& epochs, Seconds boundary) {
  const ControlConfig& cfg = loop_.config();
  Joules energy_now{0.0};
  for (const Disk& disk : ctx_.disks_) energy_now += disk.ledger().energy;

  ControlInputs in;
  in.epoch_s = epochs.length().value();
  in.requests = epoch_served_;
  in.mean_rt_s = epoch_served_ > 0
                     ? epoch_rt_sum_ / static_cast<double>(epoch_served_)
                     : 0.0;
  in.max_backlog_s = epoch_backlog_;
  in.energy_j = (energy_now - last_energy_).value();
  in.shed = epoch_shed_;

  const ControlDecision decision = loop_.update(in);
  ctx_.counters_.add(h_updates_);

  if (decision.h_scale != 1.0) {
    // Rescale every DPM-managed disk's idleness threshold; disks the
    // policy left un-managed (cold zones, always-on disks) are not the
    // latency controller's to touch.
    bool scaled = false;
    for (DiskId d = 0; d < ctx_.disks_.size(); ++d) {
      if (!ctx_.dpm_[d].spin_down_when_idle) continue;
      const double h = ctx_.dpm_[d].idleness_threshold.value();
      const double stretched =
          std::clamp(h * decision.h_scale, cfg.h_min_s, cfg.h_max_s);
      if (stretched != h) {
        ctx_.set_idleness_threshold(d, Seconds{stretched});
        scaled = true;
      }
    }
    if (scaled) ctx_.counters_.add(h_h_scaled_);
  }

  int applied = 0;
  if (decision.hot_delta != 0) {
    applied = policy_.on_control(ctx_, decision, boundary);
    if (applied > 0) {
      ctx_.counters_.add(h_hot_grows_, static_cast<std::uint64_t>(applied));
    } else if (applied < 0) {
      ctx_.counters_.add(h_hot_shrinks_,
                         static_cast<std::uint64_t>(-applied));
    }
  }

  if (decision.epoch_scale != 1.0) {
    const double length = epochs.length().value();
    const double stretched = std::clamp(length * decision.epoch_scale,
                                        cfg.epoch_min_s, cfg.epoch_max_s);
    if (stretched != length) {
      epochs.set_length(Seconds{stretched});
      ctx_.counters_.add(h_epoch_scaled_);
    }
  }

  if (ctx_.observer_ != nullptr) {
    ControlUpdateEvent event;
    event.time = boundary;
    event.epoch_index = epochs.index();
    event.requests = epoch_served_;
    event.shed = epoch_shed_;
    event.mean_rt_s = in.mean_rt_s;
    event.max_backlog_s = in.max_backlog_s;
    event.energy_j = in.energy_j;
    event.h_scale = decision.h_scale;
    event.hot_delta = applied;
    event.epoch_scale = decision.epoch_scale;
    event.epoch_len_s = epochs.length().value();
    ctx_.observer_->on_control_update(event);
  }

  last_energy_ = energy_now;
  epoch_served_ = 0;
  epoch_rt_sum_ = 0.0;
  epoch_backlog_ = 0.0;
  epoch_shed_ = 0;
}

}  // namespace pr
