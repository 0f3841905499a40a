// Slab-backed event storage for the asynchronous engine (DESIGN.md §16).
//
// The old AsyncEngine kept whole Message-carrying events inside one
// std::priority_queue: every heap sift moved a full event (including the
// payload's inline words), top() was copied before pop() — a heap clone of
// every spilled payload, one allocation per delivered event — and the queue
// vector's growth allocated on the hot path. Here events live in a
// recycling slab (free-list slot reuse, mirroring SyncSendSlab): payloads
// are copy-assigned or swap-moved into recycled slots, so their spilled
// capacities survive from event to event, and the ordering structures hold
// only (time, sequence, slot) keys — a sift moves 24 bytes, and a warmed
// run's steady state performs no allocator traffic at all
// (tests/engine_alloc_test.cpp gates this).
#pragma once

#include <algorithm>
#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "graph/types.h"
#include "sim/message.h"
#include "support/check.h"

namespace fdlsp {

/// Ordering key of one pending async event. `sequence` is assigned from one
/// counter at post time, so (time, sequence) is unique and totally ordered:
/// simultaneous events fire in post order.
struct AsyncEventKey {
  double time = 0.0;
  std::uint64_t sequence = 0;
  std::uint32_t slot = 0;  ///< index into the AsyncEventSlab
};

/// True iff `a` orders after `b` — the min-heap comparator. Ties on time
/// break by sequence; (time, sequence) pairs are unique, so two distinct
/// keys never compare equal in both fields.
inline bool event_key_after(const AsyncEventKey& a,
                            const AsyncEventKey& b) noexcept {
  return a.time != b.time ? a.time > b.time : a.sequence > b.sequence;
}

/// Payload of one pending async event, addressed by AsyncEventKey::slot.
struct AsyncEventSlot {
  NodeId to = kNoNode;
  ArcId channel = kNoArc;   ///< kNoArc marks a timer event
  std::int64_t cookie = 0;  ///< timer events only
  Message message;          ///< message events only; capacity is recycled
};

/// Recycling slot store. release() never destroys a slot: the Message and
/// its spilled payload capacity stay alive for the next acquire(), so the
/// steady state of a warmed run allocates nothing — the async analogue of
/// the sync engine's inbox slabs.
class AsyncEventSlab {
 public:
  /// Index of a free slot (recycled when one exists). The returned slot's
  /// Message holds whatever capacity its previous occupant left behind —
  /// callers copy-assign into it.
  // fdlsp-lint: hot — per-event steady-state path, no allocator traffic
  std::uint32_t acquire() {
    if (!free_.empty()) {
      const std::uint32_t slot = free_.back();
      free_.pop_back();
      return slot;
    }
    return append();
  }

  // fdlsp-lint: hot — per-event steady-state path, no allocator traffic
  void release(std::uint32_t slot) { free_.push_back(slot); }

  AsyncEventSlot& operator[](std::uint32_t slot) { return slots_[slot]; }
  const AsyncEventSlot& operator[](std::uint32_t slot) const {
    return slots_[slot];
  }

  std::size_t size() const noexcept { return slots_.size(); }

  /// Liveness map for the stall watchdog: live_map()[s] == 1 iff slot s is
  /// acquired. O(slots); diagnosis only, never on the hot path.
  std::vector<char> live_map() const {
    std::vector<char> live(slots_.size(), 1);
    for (const std::uint32_t slot : free_) live[slot] = 0;
    return live;
  }

 private:
  /// Cold growth path, kept out of the hot-annotated acquire().
  std::uint32_t append() {
    FDLSP_REQUIRE(slots_.size() < std::numeric_limits<std::uint32_t>::max(),
                  "event slab exhausted the 32-bit slot space");
    slots_.emplace_back();
    return static_cast<std::uint32_t>(slots_.size() - 1);
  }

  std::vector<AsyncEventSlot> slots_;
  std::vector<std::uint32_t> free_;  // LIFO: hottest slot reused first
};

/// 4-ary min-heap of event keys — the calendar queue's due and overflow
/// heaps (sim/timer_wheel.h). Sifts move 24-byte keys; the 4-way branching
/// halves the sift depth of a binary heap and keeps sibling groups within
/// two cache lines, which is where the dispatch loop spends its
/// comparisons. The backing vector's capacity is retained across pops, so
/// a warmed heap pushes without allocating.
class AsyncEventHeap {
 public:
  // fdlsp-lint: hot — per-event steady-state path, no allocator traffic
  void push(const AsyncEventKey& key) {
    heap_.push_back(key);
    std::size_t hole = heap_.size() - 1;
    while (hole > 0) {
      const std::size_t parent = (hole - 1) / kArity;
      if (!event_key_after(heap_[parent], key)) break;
      heap_[hole] = heap_[parent];
      hole = parent;
    }
    heap_[hole] = key;
  }

  // fdlsp-lint: hot — per-event steady-state path, no allocator traffic
  AsyncEventKey pop() {
    FDLSP_ASSERT(!heap_.empty(), "pop on empty event heap");
    const AsyncEventKey top = heap_.front();
    const AsyncEventKey last = heap_.back();
    heap_.pop_back();
    if (!heap_.empty()) sift_down(0, last);
    return top;
  }

  /// Bulk-loads an empty heap: Floyd heapify, O(k) instead of k sifts.
  /// The calendar queue drains each bucket into an empty due heap, which
  /// is exactly this shape.
  // fdlsp-lint: hot — capacity-reusing assign, no allocator traffic warmed
  void refill(const std::vector<AsyncEventKey>& keys) {
    FDLSP_ASSERT(heap_.empty(), "refill target must be empty");
    heap_.assign(keys.begin(), keys.end());
    if (heap_.size() < 2) return;
    for (std::size_t i = (heap_.size() - 2) / kArity + 1; i-- > 0;)
      sift_down(i, heap_[i]);
  }

  const AsyncEventKey& top() const {
    FDLSP_ASSERT(!heap_.empty(), "top on empty event heap");
    return heap_.front();
  }

  bool empty() const noexcept { return heap_.empty(); }
  std::size_t size() const noexcept { return heap_.size(); }

 private:
  static constexpr std::size_t kArity = 4;

  /// Places `key` into the subtree rooted at `hole` with the hole trick:
  /// promote the minimal child until the key fits.
  // fdlsp-lint: hot — per-event steady-state path, no allocator traffic
  void sift_down(std::size_t hole, const AsyncEventKey key) {
    const std::size_t size = heap_.size();
    for (;;) {
      const std::size_t first = kArity * hole + 1;
      if (first >= size) break;
      std::size_t least = first;
      const std::size_t end = std::min(first + kArity, size);
      for (std::size_t c = first + 1; c < end; ++c)
        if (event_key_after(heap_[least], heap_[c])) least = c;
      if (!event_key_after(key, heap_[least])) break;
      heap_[hole] = heap_[least];
      hole = least;
    }
    heap_[hole] = key;
  }

  std::vector<AsyncEventKey> heap_;
};

}  // namespace fdlsp
