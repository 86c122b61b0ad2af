// idle_timer.h — per-disk armed-deadline timers for DPM idle checks.
//
// The simulator's one idle scheduler. It holds exactly ONE live deadline
// per disk in an indexed binary min-heap keyed by DiskId, and background
// I/O disarms it explicitly.
//
// Re-arming is lazy. Every serve re-arms its disk, almost always to a
// later deadline, so arm() only records the disk's armed (deadline, seq)
// and touches the heap when the entry is new or the deadline moves
// earlier. A heap entry's key may therefore lag behind its disk's armed
// key, but never exceeds it. next_time() and pop() settle the top first:
// while the top's key is older than the armed one, they rewrite it and
// sift it down. The settled top's armed key is then no later than any
// heap key, hence no later than any armed key: it is the true minimum.
// Heap traffic therefore scales with spin-down decisions and deadlines
// that come due, not with requests, and every popped deadline is live.
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
    armed_.assign(disks, Key{});
    key_.assign(disks, Key{});
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
  /// Settles the heap's top, so it is not const.
  [[nodiscard]] Seconds next_time() {
    PR_PRECONDITION(!empty(), "IdleTimerHeap::next_time: no timer armed");
    settle_top();
    return armed_[heap_.front()].time;
  }

  /// Arm (or re-arm in place) the timer for `disk`. `seq` must come from a
  /// monotonically increasing counter; it breaks ties among equal
  /// deadlines FIFO (earliest arm first).
  void arm(std::uint32_t disk, Seconds deadline, std::uint64_t seq) {
    PR_PRECONDITION(disk < pos_.size(),
                    "IdleTimerHeap::arm: disk id out of range");
    armed_[disk] = Key{deadline, seq};
    if (pos_[disk] == kUnarmed) {
      key_[disk] = armed_[disk];
      pos_[disk] = heap_.size();
      heap_.push_back(disk);
      sift_up(pos_[disk]);
    } else if (deadline < key_[disk].time) {
      // Moving earlier breaks "heap key <= armed key": sift now. A later or
      // equal deadline (seq only grows) leaves the old key as a lower
      // bound for settle_top() to raise when it reaches the top.
      key_[disk] = armed_[disk];
      sift_up(pos_[disk]);
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
    settle_top();
    const std::uint32_t disk = heap_.front();
    PR_INVARIANT(key_[disk].time == armed_[disk].time &&
                     key_[disk].seq == armed_[disk].seq,
                 "IdleTimerHeap::pop: popped deadline is not the last armed");
    const Deadline out{disk, armed_[disk].time};
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

  struct Key {
    Seconds time{0.0};
    std::uint64_t seq = 0;
  };

  /// Raise stale keys at the top until the top's key is its armed one.
  void settle_top() {
    for (;;) {
      const std::uint32_t d = heap_.front();
      if (key_[d].seq == armed_[d].seq) return;
      key_[d] = armed_[d];
      sift_down(0);
    }
  }

  [[nodiscard]] bool before(std::uint32_t a, std::uint32_t b) const {
    if (key_[a].time != key_[b].time) return key_[a].time < key_[b].time;
    return key_[a].seq < key_[b].seq;
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

  std::vector<std::uint32_t> heap_;  // disk ids, ordered by key_
  std::vector<std::size_t> pos_;     // disk -> index in heap_, or kUnarmed
  std::vector<Key> armed_;           // disk -> last armed (deadline, seq)
  std::vector<Key> key_;             // disk -> heap key, <= armed_[disk]
};

}  // namespace pr
