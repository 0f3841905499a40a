// D-MGC baseline [Gandham, Dawande, Prakash] — the prior distributed FDLSP
// algorithm the paper compares against.
//
// Phase 1: (Δ+1) edge coloring of the undirected graph (Misra–Gries; the
//   original runs it distributedly with fans and cd-path inversions — we run
//   the identical sequential algorithm and charge rounds with the paper's
//   analytic cost model, since the evaluation compares slot counts).
// Phase 2: direction assignment. Each color class is a matching; orienting
//   its edges without hidden-terminal conflicts is a 2-SAT instance (one
//   boolean per edge). Classes whose instance is unsatisfiable shed their
//   most-constrained edges ("color injection" in the original) until
//   satisfiable. Oriented class i occupies slot i; the reversed orientation
//   occupies slot C+i (conflict is invariant under reversing both arcs, so
//   the mirrored class stays feasible). Shed edges are greedily recolored.
//   Matching edges share no endpoint, so their arcs conflict only when one's
//   head is adjacent to the other's tail: the simulation reads a class's
//   constrained pairs off its endpoints' adjacency rows, once per class
//   (every shed replays that list), and needs no ConflictIndex.
#pragma once

#include <cstdint>

#include "algos/scheduler.h"
#include "graph/graph.h"

namespace fdlsp {

/// Extra observability into the D-MGC pipeline.
struct DmgcStats {
  std::size_t edge_colors = 0;       ///< colors used by phase 1 (<= Δ+1)
  std::size_t injected_edges = 0;    ///< edges shed during orientation
  std::size_t estimated_rounds = 0;  ///< analytic distributed round cost
};

/// Runs the D-MGC baseline. The result's rounds field carries the analytic
/// estimate (the original algorithm is asynchronous with worst case
/// O(n²m + nmΔ); the estimate counts the work its phases actually perform).
ScheduleResult run_dmgc(const Graph& graph, DmgcStats* stats = nullptr);

}  // namespace fdlsp
