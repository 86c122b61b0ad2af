// golden_dump.h — the canonical SimResult dump and FNV-1a-64 hash shared
// by the byte-identity goldens (test_seed_layout_golden.cpp,
// test_degraded_golden.cpp). The exact field order is part of every
// committed hash — do not reorder.
#pragma once

#include <cstdint>
#include <sstream>
#include <string>
#include <string_view>

#include "sim/metrics.h"
#include "util/fmt.h"

namespace pr::golden {

inline std::uint64_t fnv1a(std::string_view bytes,
                           std::uint64_t h = 0xCBF29CE484222325ULL) {
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001B3ULL;
  }
  return h;
}

inline std::string full(double v) { return format_double(v, 17); }

/// Canonical full-precision dump of everything a SimResult reports.
inline std::string dump_result(const SimResult& r) {
  std::ostringstream out;
  out << "policy=" << r.policy_name << "\nuser_requests=" << r.user_requests
      << "\nmigrations=" << r.migrations
      << "\nmigration_bytes=" << r.migration_bytes
      << "\ntotal_transitions=" << r.total_transitions
      << "\nmax_transitions_per_day=" << full(r.max_transitions_per_day)
      << "\ntotal_energy=" << full(r.total_energy.value())
      << "\nhorizon=" << full(r.horizon.value())
      << "\nrt_count=" << r.response_time.count()
      << "\nrt_mean=" << full(r.response_time.mean())
      << "\nrt_min=" << full(r.response_time.min())
      << "\nrt_max=" << full(r.response_time.max())
      << "\nrt_sum=" << full(r.response_time.sum()) << "\n";
  for (std::size_t d = 0; d < r.ledgers.size(); ++d) {
    const DiskLedger& l = r.ledgers[d];
    out << "disk" << d << "=" << full(l.busy_time.value()) << ","
        << full(l.idle_time.value()) << "," << full(l.transition_time.value())
        << "," << full(l.time_at_low.value()) << ","
        << full(l.time_at_high.value()) << "," << full(l.energy.value())
        << "," << l.transitions << "," << l.transitions_up << ","
        << l.max_transitions_in_day << "," << l.requests << ","
        << l.bytes_served << "," << l.internal_ops << ","
        << l.internal_bytes << "\n";
  }
  for (const auto& [name, value] : r.counters) {
    out << name << "=" << value << "\n";
  }
  return out.str();
}

}  // namespace pr::golden
