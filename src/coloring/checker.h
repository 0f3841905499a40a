// Feasibility checking for FDLSP colorings.
//
// Every entry point takes an optional prebuilt ConflictIndex. With an index
// the checkers run the palette-bitset sweep (arcs bucketed by color, each
// color class probed against an arc bitset over deduplicated CSR rows).
// Without one, find_violation first sweeps the nodes: Definition 2 read at
// each receiver, in O(Σ deg(v)²) time, a factor of Δ below enumerating each
// arc's conflicts. Only a coloring the sweep flags is enumerated arc by arc,
// to name the witness; count_violations always enumerates. Both paths agree
// on verdicts and counts — only the witness pair of find_violation may
// differ (any same-colored conflicting pair is a valid witness).
#pragma once

#include <optional>
#include <utility>

#include "coloring/coloring.h"
#include "graph/arcs.h"

namespace fdlsp {

class ConflictIndex;

/// A pair of same-colored conflicting arcs (evidence of infeasibility).
struct ConflictWitness {
  ArcId a;
  ArcId b;
};

/// Returns a distance-2 coloring violation among *colored* arcs, or nullopt
/// if none. Uncolored arcs are ignored, so partial colorings can be checked
/// incrementally.
std::optional<ConflictWitness> find_violation(
    const ArcView& view, const ArcColoring& coloring,
    const ConflictIndex* index = nullptr);

/// True iff every arc is colored and no two same-colored arcs conflict —
/// i.e. the coloring is a valid full-duplex TDMA link schedule.
bool is_feasible_schedule(const ArcView& view, const ArcColoring& coloring,
                          const ConflictIndex* index = nullptr);

/// Number of unordered same-colored conflicting arc pairs among colored
/// arcs. 0 iff the (possibly partial) coloring is conflict-free. The
/// verification harness uses this as a quantitative oracle: shrinking steps
/// may only keep a candidate if the violation count stays positive.
std::size_t count_violations(const ArcView& view, const ArcColoring& coloring,
                             const ConflictIndex* index = nullptr);

}  // namespace fdlsp
