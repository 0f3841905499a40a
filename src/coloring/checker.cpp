#include "coloring/checker.h"

#include <algorithm>
#include <cstdint>
#include <vector>

#include "coloring/conflict.h"
#include "coloring/conflict_index.h"
#include "support/epoch_marks.h"

namespace fdlsp {

namespace {

/// Scratch for the palette-bitset sweep, reused per thread so the indexed
/// checkers allocate nothing in steady state (vector::assign reuses
/// capacity).
struct SweepScratch {
  std::vector<std::size_t> offsets;  // colored arcs bucketed by color (CSR)
  std::vector<std::size_t> cursor;
  std::vector<std::uint64_t> keys;  // (color, arc) pairs, wide palettes
  std::vector<ArcId> members;
  std::vector<std::uint64_t> bits;  // one bit per arc
};

/// Palette-bitset sweep over a prebuilt index: colored arcs are grouped by
/// color, members of a class in ascending arc order, then each color class
/// is marked in an arc bitset and every member's CSR row is probed against
/// it. Classes are visited in ascending color order. Grouping is a counting
/// sort over the color span while the span fits the arc count, and a sort
/// of (color, arc) pairs beyond it, so no array is ever sized by a color
/// (parsed schedules may carry any non-negative int32). Rows are
/// deduplicated, and a same-colored conflicting pair (a, b) with a < b is
/// seen exactly once — from a's row — so no per-arc dedup is needed.
/// Invokes on_pair(a, b) per pair; a false return stops the sweep.
template <typename OnPair>
void sweep_same_color_pairs(const ConflictIndex& index,
                            const ArcColoring& coloring, OnPair on_pair) {
  const std::size_t n = index.num_arcs();
  const std::size_t palette = coloring.color_span();
  thread_local SweepScratch s;

  s.bits.assign((n + 63) / 64, 0);
  const auto bit_test = [&](ArcId b) {
    return (s.bits[b >> 6] >> (b & 63)) & 1u;
  };
  // Probes one class, members [begin, end); false once on_pair stopped.
  const auto sweep_class = [&](std::size_t begin, std::size_t end) {
    if (end - begin < 2) return true;  // a singleton class cannot clash
    for (std::size_t k = begin; k < end; ++k)
      s.bits[s.members[k] >> 6] |= std::uint64_t{1} << (s.members[k] & 63);
    for (std::size_t k = begin; k < end; ++k) {
      const ArcId a = s.members[k];
      for (const ArcId b : index.conflicts(a))
        if (b > a && bit_test(b) && !on_pair(a, b)) return false;
    }
    for (std::size_t k = begin; k < end; ++k)
      s.bits[s.members[k] >> 6] &= ~(std::uint64_t{1} << (s.members[k] & 63));
    return true;
  };

  if (palette > n) {
    s.keys.clear();
    for (ArcId a = 0; a < n; ++a) {
      const Color c = coloring.color(a);
      if (c != kNoColor)
        s.keys.push_back((static_cast<std::uint64_t>(c) << 32) | a);
    }
    std::sort(s.keys.begin(), s.keys.end());
    s.members.resize(s.keys.size());
    for (std::size_t k = 0; k < s.keys.size(); ++k)
      s.members[k] = static_cast<ArcId>(s.keys[k] & 0xffffffffU);
    for (std::size_t begin = 0; begin < s.keys.size();) {
      const std::uint64_t color = s.keys[begin] >> 32;
      std::size_t end = begin + 1;
      while (end < s.keys.size() && (s.keys[end] >> 32) == color) ++end;
      if (!sweep_class(begin, end)) return;
      begin = end;
    }
    return;
  }

  s.offsets.assign(palette + 1, 0);
  for (ArcId a = 0; a < n; ++a) {
    const Color c = coloring.color(a);
    if (c != kNoColor) ++s.offsets[static_cast<std::size_t>(c) + 1];
  }
  for (std::size_t j = 0; j < palette; ++j) s.offsets[j + 1] += s.offsets[j];
  s.cursor.assign(s.offsets.begin(), s.offsets.end() - 1);
  s.members.resize(s.offsets[palette]);
  for (ArcId a = 0; a < n; ++a) {
    const Color c = coloring.color(a);
    if (c != kNoColor) s.members[s.cursor[static_cast<std::size_t>(c)]++] = a;
  }
  for (std::size_t j = 0; j < palette; ++j)
    if (!sweep_class(s.offsets[j], s.offsets[j + 1])) return;
}

/// Definition 2 read at the receivers, in O(sum of deg(v)^2) time: at each
/// node x, the color of every in-arc of x is used by no other arc whose tail
/// lies in N[x]. Those arcs are x's out-arcs and its neighbors' out-arcs,
/// among them the other in-arcs of x. Every conflicting pair breaks this at
/// some head: two arcs into x at x; an arc into x and one out of x at x; two
/// arcs out of x at either head; a hidden terminal at the head next to the
/// other arc's tail. Colors key the marks, so the caller bounds `span`.
bool receivers_clear(const ArcView& view, const ArcColoring& coloring,
                     std::size_t span) {
  const Graph& g = view.graph();
  thread_local EpochMarks heard;
  heard.reserve(span);
  for (NodeId x = 0; x < g.num_nodes(); ++x) {
    heard.begin();
    bool receives = false;
    for (const NeighborEntry& entry : g.neighbors(x)) {
      const Color c = coloring.color(ArcView::reverse(arc_along(x, entry)));
      if (c == kNoColor) continue;
      FDLSP_ASSERT(static_cast<std::size_t>(c) < span, "color beyond the span");
      if (!heard.mark_if_new(static_cast<std::size_t>(c))) return false;
      receives = true;
    }
    if (!receives) continue;
    const auto clashes = [&](NodeId w) {
      for (const NeighborEntry& entry : g.neighbors(w)) {
        if (entry.to == x) continue;  // an in-arc of x, marked above
        const Color c = coloring.color(arc_along(w, entry));
        if (c != kNoColor && heard.marked(static_cast<std::size_t>(c)))
          return true;
      }
      return false;
    };
    if (clashes(x)) return false;
    for (const NeighborEntry& entry : g.neighbors(x))
      if (clashes(entry.to)) return false;
  }
  return true;
}

}  // namespace

std::optional<ConflictWitness> find_violation(const ArcView& view,
                                              const ArcColoring& coloring,
                                              const ConflictIndex* index) {
  FDLSP_REQUIRE(coloring.num_arcs() == view.num_arcs(),
                "coloring size does not match graph");
  if (index != nullptr) {
    FDLSP_REQUIRE(index->num_arcs() == view.num_arcs(),
                  "index does not match graph");
    std::optional<ConflictWitness> witness;
    sweep_same_color_pairs(*index, coloring, [&](ArcId a, ArcId b) {
      witness = ConflictWitness{a, b};
      return false;  // first pair suffices
    });
    return witness;
  }
  // A clean node sweep settles the verdict. Otherwise the per-arc scan
  // names the witness: the first arc a with a same-colored conflicting b > a.
  // The sweep's marks are keyed by color, so it runs only when the span fits
  // the arc count (parsed schedules may carry any non-negative int32).
  const std::size_t span = coloring.color_span();
  const bool swept = span <= view.num_arcs();
  if (swept && receivers_clear(view, coloring, span)) return std::nullopt;
  for (ArcId a = 0; a < view.num_arcs(); ++a) {
    const Color c = coloring.color(a);
    if (c == kNoColor) continue;
    std::optional<ConflictWitness> witness;
    for_each_conflicting_arc(view, a, [&](ArcId b) {
      if (witness) return;
      if (b > a && coloring.color(b) == c)  // each unordered pair once
        witness = ConflictWitness{a, b};
    });
    if (witness) return witness;
  }
  FDLSP_ASSERT(!swept, "the node sweep flagged a conflict-free coloring");
  return std::nullopt;
}

bool is_feasible_schedule(const ArcView& view, const ArcColoring& coloring,
                          const ConflictIndex* index) {
  return coloring.num_arcs() == view.num_arcs() && coloring.complete() &&
         !find_violation(view, coloring, index);
}

std::size_t count_violations(const ArcView& view, const ArcColoring& coloring,
                             const ConflictIndex* index) {
  FDLSP_REQUIRE(coloring.num_arcs() == view.num_arcs(),
                "coloring size does not match graph");
  std::size_t violations = 0;
  if (index != nullptr) {
    FDLSP_REQUIRE(index->num_arcs() == view.num_arcs(),
                  "index does not match graph");
    sweep_same_color_pairs(*index, coloring, [&](ArcId, ArcId) {
      ++violations;
      return true;
    });
    return violations;
  }
  // Fallback: the enumeration may visit an arc repeatedly, so de-duplicate
  // partners with an epoch-stamped set (no per-arc vector + sort).
  thread_local EpochMarks partners;
  for (ArcId a = 0; a < view.num_arcs(); ++a) {
    const Color c = coloring.color(a);
    if (c == kNoColor) continue;
    partners.begin();
    for_each_conflicting_arc(view, a, [&](ArcId b) {
      if (b > a && coloring.color(b) == c && partners.mark_if_new(b))
        ++violations;
    });
  }
  return violations;
}

}  // namespace fdlsp
