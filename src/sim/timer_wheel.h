// Hierarchical calendar queue for the asynchronous engine (DESIGN.md §16).
//
// A comparison heap pays O(log n) sifts per event; with thousands of
// messages in flight those sifts dominate the dispatch loop. The wheel
// buckets events by coarse time instead: level 0 holds 128 fine buckets,
// level 1 holds 64 buckets of 128 fine units each, and anything beyond the
// level-1 horizon lands in an overflow min-heap. Insertion is O(1) — a
// multiply, a bucket push and a bitmap bit; each bucket is drained exactly
// once into a small "due heap" ordered by (time, sequence), so pops
// preserve the engine's exact global event order — the wheel changes
// *where* an event waits, never *when* it fires or how it ties against
// other events.
//
// The same structure serves both traffic classes. Message delays are
// clamped to (0, 1] by the delay schedule, so at the default granularity of
// 1/128 time units the level-0 window (one time unit) covers almost every
// message and the due heap stays a few dozen keys deep. Timer delays — the
// adaptive transport's RTO range, 2.0–8.5 — reach level 1 and cascade once.
//
// Correctness invariant: `l0_next_` (the first undrained level-0 bucket)
// splits pending events — everything below it sits in the due heap,
// everything at or above it in a bucket. Event time never runs backwards
// and delays are strictly positive, so a new event below the horizon is
// legal and goes straight into the due heap; buckets are only drained for
// times the engine has not reached yet.
//
// Two occupancy bitmaps (two words for level 0, one for level 1) let the
// drain loop jump straight to the next nonempty bucket with a rotate and a
// count-trailing-zeros, so sparse workloads — a lone DFS token hopping one
// time unit at a time — never linearly scan empty buckets. All bucket
// storage is recycled (clear() keeps capacity), so a warmed wheel inserts,
// cascades and pops with zero allocator traffic — the same steady-state
// contract as the event slab.
#pragma once

#include <array>
#include <bit>
#include <cstdint>
#include <vector>

#include "sim/event_queue.h"
#include "support/check.h"

namespace fdlsp {

class EventWheel {
 public:
  /// Files an event key; `key.time` must be nonnegative.
  // fdlsp-lint: hot — per-event steady-state path, no allocator traffic
  void insert(const AsyncEventKey& key) {
    FDLSP_ASSERT(key.time >= 0.0, "event scheduled before time zero");
    ++count_;
    const std::uint64_t bucket = absolute_bucket(key.time);
    if (bucket < l0_next_) {
      // Below the drain horizon: the bucket was already cascaded, so the
      // key joins the due heap directly. Legal exactly because time is
      // nondecreasing — only past-horizon buckets are ever drained.
      due_.push(key);
      return;
    }
    if (bucket < l0_window_end()) {
      const std::size_t i = bucket % kL0Buckets;
      l0_[i].push_back(key);
      l0_mask_[i / 64] |= std::uint64_t{1} << (i % 64);
      ++l0_count_;
      return;
    }
    const std::uint64_t coarse = bucket / kL0Buckets;
    if (coarse <= l1_spread_ + kL1Buckets) {
      const std::size_t i = coarse % kL1Buckets;
      l1_[i].push_back(key);
      l1_mask_ |= std::uint64_t{1} << i;
      ++l1_count_;
      return;
    }
    overflow_.push(key);
  }

  bool empty() const noexcept { return count_ == 0; }

  /// Removes and returns the minimal pending key by (time, sequence).
  /// Cascades buckets into the due heap as needed; amortized O(1) per pop.
  /// Requires a nonempty wheel.
  // fdlsp-lint: hot — per-pop steady-state path, no allocator traffic
  AsyncEventKey pop() {
    FDLSP_ASSERT(count_ > 0, "pop on empty event wheel");
    advance();
    --count_;
    return due_.pop();
  }

 private:
  // Level-0 granularity × bucket count = one level-1 bucket, so a level-1
  // cascade refills exactly one level-0 window.
  static constexpr std::size_t kL0Buckets = 128;
  static constexpr std::size_t kL1Buckets = 64;
  // 1/128 time units per fine bucket: message delays live in (0, 1], so
  // one level-0 window covers a full delay span at ~n/128 keys per bucket.
  static constexpr double kInvGranularity = 128.0;

  static std::uint64_t absolute_bucket(double time) noexcept {
    return static_cast<std::uint64_t>(time * kInvGranularity);
  }

  /// End (exclusive) of the level-0 bucket range currently spread, in
  /// absolute level-0 bucket indices.
  std::uint64_t l0_window_end() const noexcept {
    return (l1_spread_ + 1) * kL0Buckets;
  }

  /// First set level-0 bit at or after `pos`, or kL0Buckets when the rest
  /// of the window is empty. Window starts are multiples of kL0Buckets, so
  /// in-window bits never wrap around `pos`.
  std::size_t first_l0_set(std::size_t pos) const noexcept {
    if (pos < 64) {
      if (const std::uint64_t w = l0_mask_[0] >> pos; w != 0)
        return pos + static_cast<std::size_t>(std::countr_zero(w));
      if (l0_mask_[1] != 0)
        return 64 + static_cast<std::size_t>(std::countr_zero(l0_mask_[1]));
      return kL0Buckets;
    }
    if (const std::uint64_t w = l0_mask_[1] >> (pos - 64); w != 0)
      return pos + static_cast<std::size_t>(std::countr_zero(w));
    return kL0Buckets;
  }

  /// Smallest absolute coarse index with a nonempty level-1 bucket. Every
  /// nonempty bucket's coarse index lies in (l1_spread_, l1_spread_ + 64]
  /// and is congruent to its array index mod 64, so a rotate puts bucket
  /// (l1_spread_ + 1) at bit 0 and count-trailing-zeros finds the minimum.
  std::uint64_t first_l1_coarse() const noexcept {
    const auto start = static_cast<unsigned>((l1_spread_ + 1) % kL1Buckets);
    const std::uint64_t rot = std::rotr(l1_mask_, static_cast<int>(start));
    return l1_spread_ + 1 +
           static_cast<std::uint64_t>(std::countr_zero(rot));
  }

  /// Ensures the due heap holds the global minimum: drains level-0 buckets
  /// (cascading level 1 and the overflow heap when a window is exhausted)
  /// until the due heap is nonempty. The bitmaps make every step a jump to
  /// a nonempty bucket, so the loop runs O(1) amortized per pop even when
  /// events are separated by long idle gaps.
  // fdlsp-lint: hot — amortized cascade, no allocator traffic once warmed
  void advance() {
    while (due_.empty()) {
      if (l0_count_ == 0) {
        // Nothing left in the window: teleport the spread position to the
        // first pending level-1 bucket (or the overflow minimum) instead
        // of cascading through empty coarse buckets one by one.
        std::uint64_t target;
        if (l1_count_ != 0) {
          target = first_l1_coarse();
        } else {
          FDLSP_ASSERT(!overflow_.empty(), "wheel accounting out of sync");
          target = absolute_bucket(overflow_.top().time) / kL0Buckets;
        }
        if (target > l1_spread_ + 1) {
          l1_spread_ = target - 1;
          l0_next_ = l1_spread_ * kL0Buckets;
        }
        cascade();
        continue;
      }
      if (l0_next_ == l0_window_end()) {
        cascade();
        continue;
      }
      const std::size_t idx = first_l0_set(l0_next_ % kL0Buckets);
      if (idx == kL0Buckets) {  // rest of the window is empty
        l0_next_ = l0_window_end();
        continue;
      }
      l0_next_ = l1_spread_ * kL0Buckets + idx + 1;
      std::vector<AsyncEventKey>& bucket = l0_[idx];
      // The due heap is empty here, so the whole bucket bulk-loads with a
      // single O(k) heapify instead of k individual sifts.
      due_.refill(bucket);
      l0_count_ -= bucket.size();
      l0_mask_[idx / 64] &= ~(std::uint64_t{1} << (idx % 64));
      bucket.clear();
    }
  }

  /// Advances to the next level-1 bucket: pulls newly-in-range overflow
  /// events into level 1, then spreads the bucket across level 0.
  void cascade() {
    ++l1_spread_;
    l0_next_ = l1_spread_ * kL0Buckets;
    // Strict bound: a coarse index of exactly l1_spread_ + kL1Buckets would
    // alias (mod kL1Buckets) into the bucket this call is about to spread.
    while (!overflow_.empty() &&
           absolute_bucket(overflow_.top().time) / kL0Buckets <
               l1_spread_ + kL1Buckets) {
      const AsyncEventKey key = overflow_.pop();
      const std::size_t i =
          (absolute_bucket(key.time) / kL0Buckets) % kL1Buckets;
      l1_[i].push_back(key);
      l1_mask_ |= std::uint64_t{1} << i;
      ++l1_count_;
    }
    std::vector<AsyncEventKey>& coarse = l1_[l1_spread_ % kL1Buckets];
    for (const AsyncEventKey& key : coarse) {
      const std::uint64_t bucket = absolute_bucket(key.time);
      FDLSP_ASSERT(bucket >= l0_next_ && bucket < l0_window_end(),
                   "level-1 bucket held an out-of-window event");
      const std::size_t i = bucket % kL0Buckets;
      l0_[i].push_back(key);
      l0_mask_[i / 64] |= std::uint64_t{1} << (i % 64);
      ++l0_count_;
    }
    l1_count_ -= coarse.size();
    l1_mask_ &= ~(std::uint64_t{1} << (l1_spread_ % kL1Buckets));
    coarse.clear();
  }

  AsyncEventHeap due_;       // min-heap: keys below the drain horizon
  AsyncEventHeap overflow_;  // min-heap: keys past both windows
  std::array<std::vector<AsyncEventKey>, kL0Buckets> l0_{};
  std::array<std::vector<AsyncEventKey>, kL1Buckets> l1_{};
  std::array<std::uint64_t, 2> l0_mask_{};  // bit i == l0_[i] nonempty
  std::uint64_t l1_mask_ = 0;               // bit i == l1_[i] nonempty
  std::size_t count_ = 0;     // total pending
  std::size_t l0_count_ = 0;  // pending inside l0_
  std::size_t l1_count_ = 0;  // pending inside l1_
  std::uint64_t l0_next_ = 0;   // absolute index of first undrained l0 bucket
  std::uint64_t l1_spread_ = 0; // absolute l1 bucket spread into the l0 window
};

}  // namespace fdlsp
