#include "sim/planner.h"

#include <algorithm>
#include <stdexcept>

#include "redundancy/scheme.h"

namespace pr {

void plan_request(ArrayContext& ctx, const FaultState& faults,
                  RedundancyScheme* scheme, const Request& req,
                  std::vector<StripeChunk>&& chunks, RequestPlan& plan) {
  if (chunks.empty()) {
    throw std::logic_error("striped policy produced no chunks");
  }
  for (const StripeChunk& chunk : chunks) {
    if (chunk.disk >= ctx.disk_count()) {
      throw std::logic_error("policy routed to nonexistent disk");
    }
  }
  plan.primary = chunks.front().disk;
  plan.lost = false;
  plan.degraded.clear();
  if (faults.failed_count() == 0) {
    plan.serves.swap(chunks);
    return;
  }
  plan.serves.clear();
  const auto live = [&](const StripeChunk& s) {
    return s.disk < ctx.disk_count() && !faults.failed(s.disk);
  };
  for (const StripeChunk& chunk : chunks) {
    if (!faults.failed(chunk.disk)) {
      plan.serves.push_back(chunk);
      continue;
    }
    const std::size_t first = plan.serves.size();
    const bool recovered =
        scheme != nullptr &&
        scheme->degraded_read(ctx, faults, req.file, chunk.bytes, chunk.disk,
                              plan.serves) &&
        plan.serves.size() > first &&
        std::all_of(plan.serves.begin() + static_cast<std::ptrdiff_t>(first),
                    plan.serves.end(), live);
    if (!recovered) {
      plan.serves.clear();
      plan.degraded.clear();
      plan.primary = chunks.front().disk;
      plan.lost = true;
      return;
    }
    if (scheme->parity()) {
      plan.degraded.push_back(DegradedChunk{
          DegradedOutcome::kReconstructed, chunk.disk, chunk.disk,
          static_cast<std::uint32_t>(plan.serves.size() - first),
          chunk.bytes});
    } else {
      const DiskId copy = plan.serves[first].disk;
      if (&chunk == &chunks.front()) plan.primary = copy;
      plan.degraded.push_back(DegradedChunk{DegradedOutcome::kRedirected,
                                            chunk.disk, copy, 0,
                                            chunk.bytes});
    }
  }
}

}  // namespace pr
