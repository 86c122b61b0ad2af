#include "control/control_loop.h"

#include <algorithm>
#include <stdexcept>

namespace pr {

namespace {

void validate(const ControlConfig& c) {
  if (!(c.gain > 0.0)) {
    throw std::invalid_argument("ControlConfig: gain must be > 0");
  }
  if (c.hysteresis < 0.0) {
    throw std::invalid_argument("ControlConfig: hysteresis must be >= 0");
  }
  if (c.persistence == 0) {
    throw std::invalid_argument("ControlConfig: persistence must be >= 1");
  }
  if (!(c.max_step > 1.0)) {
    throw std::invalid_argument("ControlConfig: max_step must be > 1");
  }
  if (!(c.h_min_s > 0.0) || c.h_max_s < c.h_min_s) {
    throw std::invalid_argument(
        "ControlConfig: need 0 < h_min_s <= h_max_s");
  }
  if (!(c.epoch_min_s > 0.0) || c.epoch_max_s < c.epoch_min_s) {
    throw std::invalid_argument(
        "ControlConfig: need 0 < epoch_min_s <= epoch_max_s");
  }
  if (c.target_rt_ms < 0.0 || c.energy_budget_w < 0.0 ||
      c.admit_window_s < 0.0) {
    throw std::invalid_argument(
        "ControlConfig: targets/budgets/windows must be >= 0");
  }
  if (c.adapt_epoch && c.admit_window_s == 0.0 && c.target_rt_ms == 0.0) {
    throw std::invalid_argument(
        "ControlConfig: adapt_epoch needs admit_window_s or target_rt_ms "
        "as its backlog yardstick");
  }
}

}  // namespace

ControlLoop::ControlLoop(ControlConfig config) : config_(config) {
  validate(config_);
}

bool ControlLoop::persists(int* streak, int direction) const {
  if (direction == 0) {
    *streak = 0;
    return false;
  }
  // Same direction extends the streak; a reversal restarts it — the knob
  // only moves after `persistence` consecutive same-direction epochs.
  *streak = (direction > 0) == (*streak > 0) ? *streak + direction
                                             : direction;
  return static_cast<std::uint32_t>(*streak > 0 ? *streak : -*streak) >=
         config_.persistence;
}

ControlDecision ControlLoop::update(const ControlInputs& in) {
  ControlDecision out;

  // Target-latency proportional controller -> idleness-threshold scale.
  // Idle epochs (no requests) carry no latency signal and reset the
  // streak — silence is not evidence of headroom.
  if (config_.target_rt_ms > 0.0) {
    int dir = 0;
    double error = 0.0;
    if (in.requests > 0) {
      const double target_s = config_.target_rt_ms / 1000.0;
      error = (in.mean_rt_s - target_s) / target_s;
      if (error > config_.hysteresis) dir = 1;        // too slow: raise H
      if (error < -config_.hysteresis) dir = -1;      // headroom: lower H
    }
    if (persists(&rt_streak_, dir)) {
      const double magnitude = error > 0.0 ? error : -error;
      const double step =
          std::min(config_.max_step, 1.0 + config_.gain * magnitude);
      out.h_scale = dir > 0 ? step : 1.0 / step;
    }
  }

  // Energy-budget cap-spend controller -> hot-zone resize request.
  if (config_.energy_budget_w > 0.0 && in.epoch_s > 0.0) {
    const double spend_w = in.energy_j / in.epoch_s;
    const double error =
        (spend_w - config_.energy_budget_w) / config_.energy_budget_w;
    int dir = 0;
    if (error > config_.hysteresis) dir = -1;   // over budget: shrink k
    if (error < -config_.hysteresis) dir = 1;   // spare budget: grow k
    if (persists(&energy_streak_, dir)) out.hot_delta = dir;
  }

  // Backlog controller -> epoch-length scale. The reference window is the
  // admission window when shedding is armed, else 4x the latency target.
  if (config_.adapt_epoch) {
    const double reference = config_.admit_window_s > 0.0
                                 ? config_.admit_window_s
                                 : 4.0 * config_.target_rt_ms / 1000.0;
    int dir = 0;
    if (in.shed > 0 || in.max_backlog_s > 0.5 * reference) {
      dir = -1;  // pressure: re-rank more often
    } else if (in.requests > 0 && in.max_backlog_s < 0.125 * reference) {
      dir = 1;   // calm: stretch the epoch back out
    }
    if (persists(&epoch_streak_, dir)) {
      out.epoch_scale = dir < 0 ? 0.5 : 2.0;
    }
  }

  return out;
}

}  // namespace pr
