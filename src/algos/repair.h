// Incremental schedule repair for dynamic networks — the paper's stated
// future work (Section 9): sensors join, fail, or move; links appear and
// disappear; the schedule must be patched at low communication cost rather
// than recomputed from scratch.
//
// Approach: carry the surviving colors over to the new topology, clear the
// minimal set of arcs whose colors now violate distance-2 feasibility (new
// links create new conflicts), and greedily recolor the cleared and new
// arcs. The number of recolored arcs is the repair cost a distributed
// implementation would pay in localized messages; benchmarks compare it to
// a full recompute.
#pragma once

#include "coloring/coloring.h"
#include "graph/arcs.h"

namespace fdlsp {

class ConflictIndex;

/// Result of a repair pass.
struct RepairResult {
  ArcColoring coloring;          ///< complete, feasible
  std::size_t recolored_arcs = 0;  ///< arcs that changed or gained a color
  std::size_t num_slots = 0;
};

/// Transfers a coloring across topologies that share node ids: each arc of
/// `new_view` inherits the color of the same (tail, head) arc in `old_view`
/// if that link still exists; new links start uncolored, including every
/// arc of a node that joined (an id beyond the old graph's node count).
ArcColoring transfer_coloring(const ArcView& old_view,
                              const ArcColoring& old_coloring,
                              const ArcView& new_view);

/// Repairs a partial (possibly conflicting) coloring into a feasible
/// complete schedule, touching as few arcs as possible: conflicting arcs are
/// cleared pairwise (the higher arc id yields), then all uncolored arcs are
/// greedily colored. A prebuilt index for `view`'s graph turns both phases
/// into CSR row scans; the repaired coloring is identical either way.
RepairResult repair_schedule(const ArcView& view, ArcColoring partial,
                             const ConflictIndex* index = nullptr);

}  // namespace fdlsp
