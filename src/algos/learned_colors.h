// Learned arc colors, stored only where a node can read them: the one
// color store of DistMIS, distributed repair and DFS.
//
// A node reads learned colors when it greedily colors its own arcs: it
// looks up its own arcs and the arcs that conflict with them (Definition
// 2). Those are its readable arcs R(v), by which arcs the node colors:
//   kGbg     — every arc with an endpoint within distance 2 of v, for a
//              node that colors all its incident arcs (DistMIS-GBG, DFS);
//   kGeneral — every arc with an endpoint in N[v], plus the out-arcs of the
//              nodes at distance exactly 2, for a node that colors its
//              out-arcs only (DistMIS general, distributed repair);
//   an isolated node reads nothing.
// Each rule is the union of for_each_conflicting_arc over v's own arcs,
// plus those arcs, so a breadth-first walk to depth 2 builds R(v) without
// enumerating conflicts.
//
// LearnedColors is built once from the graph, before the protocol runs,
// for every node or only for a holder mask (event-local repair gives
// regions to its wake ball only; every other node reads nothing).
// Node v owns an open-addressed region of 8-byte (arc, color) entries
// holding the keys of R(v), sized exactly from |R(v)| at load 1/2, so a
// lookup is O(1) and nothing grows while the protocol runs. Regions are
// packed in node order into chunks of bounded size. A write to an
// arc outside R(v) is dropped, and so is every write after v retires:
// neither is ever read. Only node v's callbacks touch region v, so sharded
// rounds, the α-synchronizer, the reliable wrappers and the asynchronous
// engine all share one store without synchronization.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "algos/dist_mis.h"
#include "coloring/coloring.h"
#include "graph/arcs.h"
#include "graph/types.h"
#include "support/check.h"
#include "support/epoch_marks.h"
#include "support/flat_hash.h"

namespace fdlsp {

class LearnedColors {
 public:
  /// Builds the region of readable arcs, all uncolored, of every node v
  /// with holders[v] != 0, or of every node when `holders` is empty; a
  /// node without a region reads nothing. The graph must outlive the store.
  LearnedColors(const ArcView& view, DistMisVariant variant,
                std::span<const char> holders = {});

  // Regions point into the store's own chunks: a copy would point into the
  // source's. A move keeps the chunk buffers, and so the regions.
  LearnedColors(const LearnedColors&) = delete;
  LearnedColors& operator=(const LearnedColors&) = delete;
  LearnedColors(LearnedColors&&) = default;
  LearnedColors& operator=(LearnedColors&&) = default;

  /// True when node v has a region (it holds at least one readable arc).
  bool holds(NodeId v) const { return !regions_[v].empty(); }

  /// Color node v has learned for arc a; kNoColor when v has not learned
  /// one or does not read a.
  // fdlsp-lint: hot — per-lookup steady-state path, no allocator traffic
  Color color(NodeId v, ArcId a) const {
    const Entry* entry = find(v, a);
    return entry != nullptr ? entry->color : kNoColor;
  }

  /// Node v learns that arc a has color c (kNoColor: a is uncolored).
  /// Dropped when v does not read a or has retired.
  // fdlsp-lint: hot — per-message steady-state path, no allocator traffic
  void learn(NodeId v, ArcId a, Color c) {
    if (retired_[v] != 0) return;
    Entry* entry = find(v, a);
    if (entry != nullptr) entry->color = c;
  }

  /// Node v will read nothing more: later writes to its region are dropped.
  void retire(NodeId v) { retired_[v] = 1; }

  /// Smallest color not used by any arc conflicting with a that node v
  /// knows colored: the greedy rule every protocol colors with. The
  /// conflict enumeration stays on the fly (see coloring/conflict_index.h
  /// on why node programs do not prebuild); `used` is the caller's
  /// epoch-stamped scratch, so no call allocates once it has grown.
  Color smallest_known_feasible(NodeId v, ArcId a, EpochMarks& used) const;

  /// Calls fn(a) for every arc in R(v), in region order.
  template <typename Fn>
  void for_each_readable(NodeId v, Fn&& fn) const {
    for (const Entry& entry : regions_[v])
      if (entry.arc != kNoArc) fn(entry.arc);
  }

  /// Entries across every region: twice the sum of |R(v)|.
  std::size_t capacity() const noexcept { return capacity_; }

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
    FDLSP_ASSERT(v < regions_.size(), "node outside store");
    const std::span<const Entry> region = regions_[v];
    if (region.empty()) return nullptr;
    std::size_t i = home(a, region.size());
    for (;;) {
      const Entry& entry = region[i];
      if (entry.arc == a) return &entry;
      if (entry.arc == kNoArc) return nullptr;
      if (++i == region.size()) i = 0;
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

  /// Most entries one chunk holds unless a single region is larger.
  static constexpr std::size_t kChunkEntries = std::size_t{1} << 15;

  ArcView view_;
  std::vector<std::span<Entry>> regions_;  // region v, inside one chunk
  // The regions, packed in node order into chunks of at most kChunkEntries
  // entries (256 KiB) each, or one larger region. A bounded block fits the
  // holes an earlier run's store and messages left in the heap, where one
  // store-sized block would extend it: a DFS run after a DistMIS run on
  // the same graph needs a larger store than DistMIS freed.
  std::vector<std::vector<Entry>> chunks_;
  std::size_t capacity_ = 0;
  std::vector<char> retired_;
};

}  // namespace fdlsp
