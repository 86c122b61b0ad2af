// service_model.h — per-request service-time and energy computation for one
// speed mode. Whole-file sequential access (paper §4): service = average
// seek + average rotational latency + size / transfer-rate.
#pragma once

#include "disk/disk_params.h"
#include "util/units.h"

namespace pr {

struct ServiceCost {
  Seconds time{0.0};
  Joules energy{0.0};
};

/// The per-mode terms of the service time, computed once so a transfer
/// costs one add and one divide. Disk keeps one per speed.
struct ServiceConstants {
  Seconds positioning{0.0};  // avg_seek + avg_rotational_latency()
  double bytes_per_s = 0.0;  // transfer_bytes_per_s()
};

[[nodiscard]] ServiceConstants service_constants(const DiskSpeedMode& mode);

/// Service time of a whole-file transfer of `bytes` with constants `k`.
[[nodiscard]] inline Seconds service_time(const ServiceConstants& k,
                                          Bytes bytes) {
  return k.positioning + Seconds{static_cast<double>(bytes) / k.bytes_per_s};
}

/// Service time of a whole-file transfer of `bytes` at the given mode.
[[nodiscard]] Seconds service_time(const DiskSpeedMode& mode, Bytes bytes);

/// Service time + active-power energy for the transfer.
[[nodiscard]] ServiceCost service_cost(const DiskSpeedMode& mode, Bytes bytes);

/// Break-even idle time for a down+up transition pair: spinning down only
/// saves energy when the idle period exceeds this (the paper's §5.2
/// observation that "a disk spin down can cause more energy consumption if
/// the idle time is not long enough"). Computed from the power gap and the
/// transition overheads.
[[nodiscard]] Seconds transition_break_even_idle(
    const TwoSpeedDiskParams& params);

}  // namespace pr
