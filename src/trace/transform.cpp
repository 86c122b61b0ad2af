#include "trace/transform.h"

#include <cmath>
#include <stdexcept>
#include <unordered_map>

namespace pr {

Trace time_window(const Trace& trace, Seconds from, Seconds to) {
  if (!std::isfinite(from.value()) || !std::isfinite(to.value())) {
    throw std::invalid_argument("time_window: bounds must be finite");
  }
  if (to < from) {
    throw std::invalid_argument("time_window: inverted window");
  }
  Trace out;
  for (const auto& r : trace.requests) {
    if (r.arrival < from || r.arrival >= to) continue;
    Request shifted = r;
    shifted.arrival = r.arrival - from;
    out.requests.push_back(shifted);
  }
  return out;
}

Trace head(const Trace& trace, std::size_t n) {
  Trace out;
  const std::size_t keep = std::min(n, trace.size());
  out.requests.assign(trace.requests.begin(),
                      trace.requests.begin() + static_cast<std::ptrdiff_t>(keep));
  return out;
}

Trace scale_rate(const Trace& trace, double factor) {
  if (!std::isfinite(factor) || !(factor > 0.0)) {
    throw std::invalid_argument("scale_rate: factor must be finite and > 0");
  }
  Trace out;
  out.requests.reserve(trace.size());
  for (const auto& r : trace.requests) {
    Request scaled = r;
    scaled.arrival = Seconds{r.arrival.value() / factor};
    out.requests.push_back(scaled);
  }
  return out;
}

Trace sample_every(const Trace& trace, std::size_t k) {
  if (k == 0) throw std::invalid_argument("sample_every: k == 0");
  Trace out;
  out.requests.reserve(trace.size() / k + 1);
  for (std::size_t i = 0; i < trace.size(); i += k) {
    out.requests.push_back(trace.requests[i]);
  }
  return out;
}

Trace densify_files(const Trace& trace, std::vector<FileId>* old_ids) {
  if (old_ids) old_ids->clear();
  std::unordered_map<FileId, FileId> dense;
  dense.reserve(trace.size() / 8 + 16);
  Trace out;
  out.requests.reserve(trace.size());
  for (const auto& r : trace.requests) {
    Request mapped = r;
    auto [it, inserted] =
        dense.try_emplace(r.file, static_cast<FileId>(dense.size()));
    mapped.file = it->second;
    if (inserted && old_ids) old_ids->push_back(r.file);
    out.requests.push_back(mapped);
  }
  return out;
}

Trace repeat(const Trace& trace, std::size_t days, Seconds period) {
  if (days == 0) throw std::invalid_argument("repeat: zero days");
  if (!std::isfinite(period.value()) || !(period > Seconds{0.0})) {
    throw std::invalid_argument("repeat: period must be finite and > 0");
  }
  if (!trace.empty() && trace.requests.back().arrival >= period) {
    throw std::invalid_argument(
        "repeat: trace longer than the repetition period");
  }
  Trace out;
  out.requests.reserve(trace.size() * days);
  for (std::size_t day = 0; day < days; ++day) {
    const Seconds shift = period * static_cast<double>(day);
    for (const auto& r : trace.requests) {
      Request shifted = r;
      shifted.arrival = r.arrival + shift;
      out.requests.push_back(shifted);
    }
  }
  return out;
}

}  // namespace pr
