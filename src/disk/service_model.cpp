#include "disk/service_model.h"

namespace pr {

ServiceConstants service_constants(const DiskSpeedMode& mode) {
  return ServiceConstants{mode.avg_seek + mode.avg_rotational_latency(),
                          mode.transfer_bytes_per_s()};
}

Seconds service_time(const DiskSpeedMode& mode, Bytes bytes) {
  return service_time(service_constants(mode), bytes);
}

ServiceCost service_cost(const DiskSpeedMode& mode, Bytes bytes) {
  ServiceCost cost;
  cost.time = service_time(mode, bytes);
  cost.energy = mode.active_power * cost.time;
  return cost;
}

Seconds transition_break_even_idle(const TwoSpeedDiskParams& params) {
  // Spending T idle at low speed instead of high saves
  //   (ih - il) * (T - t_down - t_up)   [no service during transitions]
  // and costs E_down + E_up plus the idle-at-low energy during the
  // transition windows themselves (already excluded above by construction:
  // transition energy is accounted as a lump). Break-even:
  //   (ih - il) * T_be = E_down + E_up + ih * (t_down + t_up)
  // where staying at high for the transition windows would itself have
  // cost ih * (t_down + t_up); being conservative we require the *saved*
  // energy to cover the lumps:
  const double gap =
      params.high.idle_power.value() - params.low.idle_power.value();
  if (gap <= 0.0) return kNeverTime;
  const double lumps = params.transition_down_energy.value() +
                       params.transition_up_energy.value();
  const double transit =
      params.transition_down_time.value() + params.transition_up_time.value();
  return Seconds{lumps / gap + transit};
}

}  // namespace pr
