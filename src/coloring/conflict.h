// The distance-2 arc conflict relation (Definition 2).
//
// Arcs a = (t1 -> h1) and b = (t2 -> h2) of the bi-directed graph may not
// share a TDMA slot iff
//   * they share an endpoint (ILP constraints 4, 5, 6), or
//   * one's head is adjacent to the other's tail — the hidden-terminal
//     condition (ILP constraint 2): the receiver would hear two transmitters.
//
// Every component of the library (checker, greedy/exact colorers, ILP,
// distributed algorithms, radio simulator) reduces to this predicate.
#pragma once

#include <vector>

#include "coloring/coloring.h"
#include "graph/arcs.h"
#include "graph/types.h"

namespace fdlsp {

/// True iff distinct arcs a and b may not share a color.
bool arcs_conflict(const ArcView& view, ArcId a, ArcId b);

/// Invokes fn(b) for every arc b != a that conflicts with a. An arc may be
/// visited more than once (the enumeration unions overlapping categories);
/// callers must be idempotent per arc.
template <typename Fn>
void for_each_conflicting_arc(const ArcView& view, ArcId a, Fn&& fn) {
  const NodeId t = view.tail(a);
  const NodeId h = view.head(a);
  const Graph& g = view.graph();
  // 1) Arcs incident on the tail or the head (both directions).
  for (const NeighborEntry& entry : g.neighbors(t)) {
    const ArcId out = arc_along(t, entry);
    if (out != a) fn(out);
    const ArcId in = ArcView::reverse(out);
    if (in != a) fn(in);
  }
  for (const NeighborEntry& entry : g.neighbors(h)) {
    const ArcId out = arc_along(h, entry);
    if (out != a) fn(out);
    const ArcId in = ArcView::reverse(out);
    if (in != a) fn(in);
  }
  // 2) Hidden terminal, receiver side: a transmitter adjacent to h would
  //    interfere at h — any out-arc of a neighbor of h conflicts.
  for (const NeighborEntry& near_head : g.neighbors(h)) {
    const NodeId w = near_head.to;
    for (const NeighborEntry& entry : g.neighbors(w)) {
      const ArcId out = arc_along(w, entry);
      if (out != a) fn(out);
    }
  }
  // 3) Hidden terminal, transmitter side: t transmitting interferes at any
  //    neighbor x of t that is receiving — any in-arc of a neighbor of t.
  for (const NeighborEntry& near_tail : g.neighbors(t)) {
    const NodeId x = near_tail.to;
    for (const NeighborEntry& entry : g.neighbors(x)) {
      const ArcId in = ArcView::reverse(arc_along(x, entry));
      if (in != a) fn(in);
    }
  }
}

/// Sorted, de-duplicated list of arcs conflicting with a.
std::vector<ArcId> conflicting_arcs(const ArcView& view, ArcId a);

/// As conflicting_arcs, but reusing the caller's buffer (cleared first).
/// (ConflictIndex generates its rows with a faster bitset sweep internally;
/// this helper serves one-off queries that want an owned, sorted row.)
void conflicting_arcs_into(const ArcView& view, ArcId a,
                           std::vector<ArcId>& out);

/// Smallest color >= 0 not used by any colored arc conflicting with a.
/// This is the shared greedy primitive of the sequential colorer and of both
/// distributed algorithms (each node runs it with its distance-2 knowledge).
/// Enumerates conflicts on the fly; workloads that query many arcs on one
/// graph should prebuild a ConflictIndex and use ConflictScratch instead
/// (coloring/conflict_index.h) — both return identical colors.
Color smallest_feasible_color(const ArcView& view, const ArcColoring& coloring,
                              ArcId a);

}  // namespace fdlsp
