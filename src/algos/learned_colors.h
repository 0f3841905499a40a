// Learned arc colors of a DistMIS population, stored only where a node can
// read them.
//
// A DistMIS node reads learned colors at one point: when it wins and
// greedily colors its own arcs, it looks up its own arcs and the arcs that
// conflict with them (Definition 2). Those are its readable arcs R(v):
//   kGbg     — every arc with an endpoint within distance 2 of v (v colors
//              all its incident arcs);
//   kGeneral — every arc with an endpoint in N[v], plus the out-arcs of the
//              nodes at distance exactly 2 (v colors its out-arcs only);
//   an isolated node reads nothing.
// Each rule is the union of for_each_conflicting_arc over v's own arcs,
// plus those arcs, so a breadth-first walk to depth 2 builds R(v) without
// enumerating conflicts.
//
// LearnedColors is built once from the graph, before any round runs. Node v
// owns an open-addressed region of 8-byte (arc, color) entries holding the
// keys of R(v), sized exactly from |R(v)| at load 1/2, so a lookup is O(1)
// and nothing grows while the protocol runs. A write to an arc outside R(v)
// is dropped, and so is every write after v retires: neither is ever read.
// Only node v's callbacks touch region v, so sharded rounds, the
// α-synchronizer and the reliable wrapper all share one store without
// synchronization.
#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "algos/dist_mis.h"
#include "coloring/coloring.h"
#include "graph/arcs.h"
#include "graph/types.h"
#include "support/check.h"
#include "support/flat_hash.h"

namespace fdlsp {

class LearnedColors {
 public:
  /// Builds every node's region of readable arcs, all uncolored.
  LearnedColors(const ArcView& view, DistMisVariant variant);

  /// Color node v has learned for arc a; kNoColor when v has not learned
  /// one or does not read a.
  // fdlsp-lint: hot — per-lookup steady-state path, no allocator traffic
  Color color(NodeId v, ArcId a) const {
    const Entry* entry = find(v, a);
    return entry != nullptr ? entry->color : kNoColor;
  }

  /// Node v learns that arc a has color c. Dropped when v does not read a
  /// or has retired.
  // fdlsp-lint: hot — per-message steady-state path, no allocator traffic
  void learn(NodeId v, ArcId a, Color c) {
    if (retired_[v] != 0) return;
    Entry* entry = find(v, a);
    if (entry != nullptr) entry->color = c;
  }

  /// Node v will read nothing more: later writes to its region are dropped.
  void retire(NodeId v) { retired_[v] = 1; }

  /// Calls fn(a) for every arc in R(v), in region order.
  template <typename Fn>
  void for_each_readable(NodeId v, Fn&& fn) const {
    for (std::size_t i = offsets_[v]; i < offsets_[v + 1]; ++i)
      if (entries_[i].arc != kNoArc) fn(entries_[i].arc);
  }

  /// Entries across every region: twice the sum of |R(v)|.
  std::size_t capacity() const noexcept { return entries_.size(); }

 private:
  struct Entry {
    ArcId arc = kNoArc;  // kNoArc: empty slot
    Color color = kNoColor;
  };

  /// Region v's entry for arc a, or nullptr when a is not in R(v). Linear
  /// probing from a hashed home slot; a region is exactly half full, so
  /// every probe sequence meets an empty slot.
  // fdlsp-lint: hot — per-lookup steady-state path, no allocator traffic
  const Entry* find(NodeId v, ArcId a) const {
    FDLSP_ASSERT(v + std::size_t{1} < offsets_.size(), "node outside store");
    const std::size_t begin = offsets_[v];
    const std::size_t end = offsets_[v + 1];
    FDLSP_ASSERT(begin <= end && end <= entries_.size(),
                 "region outside the store");
    if (begin == end) return nullptr;
    std::size_t i = begin + home(a, end - begin);
    for (;;) {
      const Entry& entry = entries_[i];
      if (entry.arc == a) return &entry;
      if (entry.arc == kNoArc) return nullptr;
      if (++i == end) i = begin;
    }
  }
  Entry* find(NodeId v, ArcId a) {
    return const_cast<Entry*>(std::as_const(*this).find(v, a));
  }

  /// Home slot of arc a in a region of `slots` entries: the high half of a
  /// fixed 64-bit mix, scaled into [0, slots) without a division.
  static std::size_t home(ArcId a, std::size_t slots) noexcept {
    const std::uint64_t mixed = detail::mix_hash(a) >> 32;
    return static_cast<std::size_t>((mixed * slots) >> 32);
  }

  std::vector<std::size_t> offsets_;  // region v: [offsets_[v], offsets_[v+1])
  std::vector<Entry> entries_;
  std::vector<char> retired_;
};

}  // namespace fdlsp
