// planner.h — the request planner: which disks one request reads.
//
// ArraySimulator::run() hands each arrival's chunk list (a non-striped
// route() is a one-chunk stripe) to plan_request. The planner validates
// the route targets and replaces every chunk on a failed disk with the
// reads the redundancy seam (redundancy/scheme.h) appends for it. It books
// nothing — no counter, no event, no I/O — so a plan can be checked on a
// bare ArrayContext (tests/test_planner.cpp). The simulator admits the
// request, books plan.degraded, serves plan.serves and arms idle checks
// over the same list.
#pragma once

#include <cstdint>
#include <vector>

#include "fault/fault_state.h"
#include "sim/array_sim.h"

namespace pr {

/// A chunk whose disk had failed and whose data the scheme recovered.
struct DegradedChunk {
  /// kReconstructed for a parity scheme, else kRedirected.
  DegradedOutcome outcome = DegradedOutcome::kRedirected;
  /// The failed disk the policy routed the chunk to.
  DiskId failed = kInvalidDisk;
  /// The live copy (redirected), or `failed` itself (reconstructed).
  DiskId served_by = kInvalidDisk;
  /// Survivor reads replacing the chunk (reconstructed only).
  std::uint32_t sources = 0;
  Bytes bytes = 0;
};

/// What the simulator books for one request. Caller-owned and reused, so
/// planning allocates nothing once its vectors have grown.
struct RequestPlan {
  /// Every read, in chunk order, each failed chunk replaced in place by
  /// its scheme's reads. Empty when lost.
  std::vector<StripeChunk> serves;
  /// The recovered chunks, in chunk order. Empty when lost.
  std::vector<DegradedChunk> degraded;
  /// The first chunk's disk, or the live copy a redirect moved it to.
  DiskId primary = kInvalidDisk;
  /// Some failed chunk was not recovered: no scheme, the scheme reported
  /// loss, or it named no read or a failed or nonexistent disk.
  bool lost = false;
};

/// Plan `req`, split by its policy into `chunks`, against `faults`;
/// `scheme` (nullptr: none) answers for each chunk on a failed disk.
/// Throws std::logic_error when `chunks` is empty or names a disk outside
/// the array. With no disk failed the test is one comparison and the plan
/// takes `chunks` over by swapping buffers: no copy, and the caller keeps
/// the old buffer to refill.
void plan_request(ArrayContext& ctx, const FaultState& faults,
                  RedundancyScheme* scheme, const Request& req,
                  std::vector<StripeChunk>&& chunks, RequestPlan& plan);

}  // namespace pr
