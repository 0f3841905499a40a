#include "algos/repair.h"

#include <vector>

#include "coloring/checker.h"
#include "coloring/conflict.h"
#include "coloring/conflict_index.h"
#include "support/check.h"

namespace fdlsp {

ArcColoring transfer_coloring(const ArcView& old_view,
                              const ArcColoring& old_coloring,
                              const ArcView& new_view) {
  ArcColoring transferred(new_view.num_arcs());
  const std::size_t old_nodes = old_view.graph().num_nodes();
  for (ArcId a = 0; a < new_view.num_arcs(); ++a) {
    const NodeId tail = new_view.tail(a);
    const NodeId head = new_view.head(a);
    // An endpoint that joined after the old graph has no old arcs.
    if (tail >= old_nodes || head >= old_nodes) continue;
    const ArcId old_arc = old_view.find_arc(tail, head);
    if (old_arc != kNoArc && old_coloring.is_colored(old_arc))
      transferred.set(a, old_coloring.color(old_arc));
  }
  return transferred;
}

RepairResult repair_schedule(const ArcView& view, ArcColoring partial,
                             const ConflictIndex* index) {
  FDLSP_REQUIRE(partial.num_arcs() == view.num_arcs(),
                "partial coloring does not match graph");
  FDLSP_REQUIRE(index == nullptr || index->num_arcs() == view.num_arcs(),
                "index does not match graph");

  // Phase 1: clear conflicts introduced by topology changes. The lower arc
  // id keeps its slot; the higher one yields, so each conflicting pair
  // clears exactly one arc. Clearing only removes colors, so one ascending
  // pass suffices.
  for (ArcId a = 0; a < view.num_arcs(); ++a) {
    if (!partial.is_colored(a)) continue;
    const Color c = partial.color(a);
    bool clash = false;
    if (index != nullptr) {
      for (const ArcId b : index->conflicts(a)) {
        if (b >= a) break;  // rows are sorted; only lower ids matter
        if (partial.color(b) == c) {
          clash = true;
          break;
        }
      }
    } else {
      for_each_conflicting_arc(view, a, [&](ArcId b) {
        if (!clash && b < a && partial.color(b) == c) clash = true;
      });
    }
    if (clash) partial.clear(a);
  }
  FDLSP_ASSERT(!find_violation(view, partial, index).has_value(),
               "phase 1 must clear all conflicts");

  // Phase 2: greedily color everything still missing.
  RepairResult result;
  if (index != nullptr) {
    ConflictScratch scratch(*index);
    for (ArcId a = 0; a < view.num_arcs(); ++a) {
      if (partial.is_colored(a)) continue;
      partial.set(a, scratch.smallest_feasible_color(partial, a));
      ++result.recolored_arcs;
    }
  } else {
    for (ArcId a = 0; a < view.num_arcs(); ++a) {
      if (partial.is_colored(a)) continue;
      partial.set(a, smallest_feasible_color(view, partial, a));
      ++result.recolored_arcs;
    }
  }
  result.num_slots = partial.num_colors_used();
  result.coloring = std::move(partial);
  return result;
}

}  // namespace fdlsp
