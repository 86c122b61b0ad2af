// request.h — the unit of work flowing through the simulator. The policies
// in this reproduction only ever see (arrival time, file id, size, kind),
// which is exactly the information the paper's trace-driven simulator uses:
// each request reads an entire file (§4, "each request accesses an entire
// file ... typical for Web, proxy, ftp, and email server workloads").
#pragma once

#include <cstdint>
#include <vector>

#include "util/units.h"

namespace pr {

using FileId = std::uint32_t;
constexpr FileId kInvalidFile = ~FileId{0};

enum class RequestKind : std::uint8_t {
  kRead = 0,   // user read (the dominant web-trace operation)
  kWrite = 1,  // user write
};

// Field order is the memory layout: the 1-byte `kind` fills the padding
// after the 4-byte `file`, so a Request is 24 bytes; with `size` between
// them it pads to 32. A materialized day is 1.48 M of these, so the order
// is a quarter of a trace's resident memory. Initialize by name
// ({.arrival = ..., .file = ..., .size = ...}): a positional init that
// puts a size where `kind` sits fails to compile, because Bytes does not
// convert to RequestKind.
struct Request {
  Seconds arrival{};
  FileId file = kInvalidFile;
  RequestKind kind = RequestKind::kRead;
  Bytes size = 0;  // full-file transfer size

  friend bool operator==(const Request&, const Request&) = default;
};
static_assert(sizeof(Request) == 24, "Request must pack into 24 bytes");

/// A trace is an arrival-time-ordered request sequence plus the universe of
/// files it references (file sizes are carried separately by the FileSet;
/// `size` here is the per-request transfer size, which for whole-file
/// workloads equals the file size).
struct Trace {
  std::vector<Request> requests;

  [[nodiscard]] bool empty() const { return requests.empty(); }
  [[nodiscard]] std::size_t size() const { return requests.size(); }

  /// Duration from first to last arrival (0 for traces of < 2 requests).
  [[nodiscard]] Seconds duration() const {
    if (requests.size() < 2) return Seconds{0};
    return requests.back().arrival - requests.front().arrival;
  }

  /// True if arrivals are non-decreasing (simulator precondition).
  [[nodiscard]] bool is_sorted() const {
    for (std::size_t i = 1; i < requests.size(); ++i) {
      if (requests[i].arrival < requests[i - 1].arrival) return false;
    }
    return true;
  }

  /// Highest referenced file id + 1 (0 for an empty trace).
  [[nodiscard]] std::size_t file_universe() const {
    std::size_t n = 0;
    for (const auto& r : requests) {
      if (r.file != kInvalidFile && r.file >= n) n = r.file + std::size_t{1};
    }
    return n;
  }
};

}  // namespace pr
