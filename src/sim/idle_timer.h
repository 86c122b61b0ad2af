// idle_timer.h — per-disk armed-deadline timers for DPM idle checks.
//
// The simulator's one idle scheduler. It holds exactly ONE live deadline
// per disk in an indexed binary min-heap keyed by DiskId: serving a disk
// re-arms its deadline *in place* (a sift within the heap, no allocation),
// and background I/O disarms it explicitly. Heap traffic therefore scales
// with actual spin-down decisions, not with requests, and every popped
// deadline is live.
//
// Determinism: entries order by (deadline, seq). The caller passes a
// monotonically increasing sequence number on every arm, so simultaneous
// deadlines fire FIFO in arm order.
#pragma once

#include <cstdint>
#include <vector>

#include "util/contracts.h"
#include "util/units.h"

namespace pr {

class IdleTimerHeap {
 public:
  struct Deadline {
    std::uint32_t disk = 0;
    Seconds time{0.0};
  };

  /// Reset to `disks` slots, all disarmed.
  void resize(std::size_t disks) {
    pos_.assign(disks, kUnarmed);
    time_.assign(disks, Seconds{0.0});
    seq_.assign(disks, 0);
    heap_.clear();
  }

  [[nodiscard]] bool empty() const { return heap_.empty(); }
  [[nodiscard]] std::size_t size() const { return heap_.size(); }
  [[nodiscard]] bool armed(std::uint32_t disk) const {
    PR_PRECONDITION(disk < pos_.size(),
                    "IdleTimerHeap::armed: disk id out of range");
    return pos_[disk] != kUnarmed;
  }

  /// Earliest armed deadline (undefined when empty — check empty() first).
  [[nodiscard]] Seconds next_time() const {
    PR_PRECONDITION(!empty(), "IdleTimerHeap::next_time: no timer armed");
    return time_[heap_.front()];
  }

  /// Arm (or re-arm in place) the timer for `disk`. `seq` must come from a
  /// monotonically increasing counter; it breaks ties among equal
  /// deadlines FIFO (earliest arm first).
  void arm(std::uint32_t disk, Seconds deadline, std::uint64_t seq) {
    PR_PRECONDITION(disk < pos_.size(),
                    "IdleTimerHeap::arm: disk id out of range");
    time_[disk] = deadline;
    seq_[disk] = seq;
    if (pos_[disk] == kUnarmed) {
      pos_[disk] = heap_.size();
      heap_.push_back(disk);
      sift_up(pos_[disk]);
    } else {
      // In-place re-arm: the new deadline may sit on either side of the
      // old one (READ doubles H upward; a busier completion time can move
      // either way), so try both directions.
      const std::size_t i = sift_up(pos_[disk]);
      sift_down(i);
    }
  }

  /// Cancel the pending deadline for `disk` (no-op when not armed).
  void disarm(std::uint32_t disk) {
    PR_PRECONDITION(disk < pos_.size(),
                    "IdleTimerHeap::disarm: disk id out of range");
    const std::size_t i = pos_[disk];
    if (i == kUnarmed) return;
    pos_[disk] = kUnarmed;
    const std::uint32_t last = heap_.back();
    heap_.pop_back();
    if (last != disk) {
      heap_[i] = last;
      pos_[last] = i;
      sift_down(sift_up(i));
    }
  }

  /// Remove and return the earliest deadline.
  Deadline pop() {
    PR_PRECONDITION(!empty(), "IdleTimerHeap::pop: no timer armed");
    const std::uint32_t disk = heap_.front();
    const Deadline out{disk, time_[disk]};
    pos_[disk] = kUnarmed;
    const std::uint32_t last = heap_.back();
    heap_.pop_back();
    if (!heap_.empty()) {
      heap_[0] = last;
      pos_[last] = 0;
      sift_down(0);
    }
    return out;
  }

 private:
  static constexpr std::size_t kUnarmed = ~std::size_t{0};

  [[nodiscard]] bool before(std::uint32_t a, std::uint32_t b) const {
    if (time_[a] != time_[b]) return time_[a] < time_[b];
    return seq_[a] < seq_[b];
  }

  std::size_t sift_up(std::size_t i) {
    const std::uint32_t d = heap_[i];
    while (i > 0) {
      const std::size_t parent = (i - 1) / 2;
      if (!before(d, heap_[parent])) break;
      heap_[i] = heap_[parent];
      pos_[heap_[i]] = i;
      i = parent;
    }
    heap_[i] = d;
    pos_[d] = i;
    return i;
  }

  void sift_down(std::size_t i) {
    const std::uint32_t d = heap_[i];
    const std::size_t n = heap_.size();
    for (;;) {
      std::size_t child = 2 * i + 1;
      if (child >= n) break;
      if (child + 1 < n && before(heap_[child + 1], heap_[child])) ++child;
      if (!before(heap_[child], d)) break;
      heap_[i] = heap_[child];
      pos_[heap_[i]] = i;
      i = child;
    }
    heap_[i] = d;
    pos_[d] = i;
  }

  std::vector<std::uint32_t> heap_;  // disk ids, heap-ordered
  std::vector<std::size_t> pos_;     // disk -> index in heap_, or kUnarmed
  std::vector<Seconds> time_;        // disk -> armed deadline
  std::vector<std::uint64_t> seq_;   // disk -> arm sequence (tie-break)
};

}  // namespace pr
