// transform.h — trace surgery utilities for working with real logs:
// cutting a day out of a multi-day trace, compressing/stretching load
// (the paper's light-vs-heavy axis applied to a *measured* trace rather
// than a synthetic one), truncating for smoke runs, and renumbering file
// ids after a cut. All pure functions; inputs are never mutated.
#pragma once

#include <cstdint>
#include <vector>

#include "trace/request.h"

namespace pr {

/// Requests with arrival in [from, to), rebased so the window starts at 0.
/// Throws std::invalid_argument for a non-finite bound or to < from.
[[nodiscard]] Trace time_window(const Trace& trace, Seconds from, Seconds to);

/// First `n` requests (the whole trace if n >= size).
[[nodiscard]] Trace head(const Trace& trace, std::size_t n);

/// Compress (factor > 1) or stretch (factor < 1) the arrival timeline:
/// arrivals are divided by `factor`, multiplying the request rate by it —
/// the paper's "heavy = 4x the rate" applied to an existing trace.
/// Throws std::invalid_argument unless factor is finite and > 0.
[[nodiscard]] Trace scale_rate(const Trace& trace, double factor);

/// Keep only every k-th request (k >= 1) — thinning that preserves the
/// popularity mix and time span while cutting volume; pairs with
/// scale_rate to shrink a trace without changing its rate.
[[nodiscard]] Trace sample_every(const Trace& trace, std::size_t k);

/// Renumber file ids densely in first-appearance order (after windowing
/// or sampling, ids can be sparse). Returns the id map via `old_ids`
/// (old_ids[new_id] = old id) when non-null.
[[nodiscard]] Trace densify_files(const Trace& trace,
                                  std::vector<FileId>* old_ids = nullptr);

/// Concatenate `days` copies of a (near-)day trace back to back, each
/// copy shifted by `period` (e.g. 86,400 s). Request order and per-copy
/// spacing are preserved exactly — used for multi-day budget studies.
/// Throws std::invalid_argument for days == 0, a period that is not finite
/// and > 0, or a trace whose last arrival is not before the period.
[[nodiscard]] Trace repeat(const Trace& trace, std::size_t days,
                           Seconds period);

}  // namespace pr
