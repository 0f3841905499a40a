// DFS-based asynchronous FDLSP algorithm (Algorithm 2 of the paper).
//
// A designated root starts a depth-first token traversal. The token holder
// gathers the distance-2 color assignment from its neighborhood (REQ ->
// sub-request relay -> aggregated REP), greedily colors its still-uncolored
// incident arcs, broadcasts the assignment (acknowledged, which serializes
// knowledge with the token), and forwards the token to its unvisited
// neighbor of maximum degree; when none remains the token returns to the
// parent. Nodes learn a neighbor was visited when that neighbor requests
// colors, exactly as the paper prescribes.
//
// Knowledge gathering note: a REP aggregates the replier's own incident
// colors plus its neighbors' (one extra relay hop). The paper's narrative
// ("ask neighbors for their distance-2 edge color assignment") assumes the
// same information content; the relay makes the message complexity
// O(sum of squared degrees) = O(mΔ) rather than the paper's stated O(m),
// the price of a provably sufficient knowledge set (see DESIGN.md).
#pragma once

#include <cstdint>

#include "algos/scheduler.h"
#include "graph/graph.h"
#include "graph/types.h"
#include "sim/async_engine.h"

namespace fdlsp {

/// Tunables for a DFS run; the inherited RunConfig says how it executes.
/// With crash/churn armed, or with losses and `reliable` off, the result's
/// coloring may be partial — an unhardened DFS loses its token to the first
/// dropped message. The asynchronous engine rejects a nonzero `shards`.
struct DfsOptions : RunConfig {
  /// Root of the traversal; kNoNode selects the maximum-degree node.
  NodeId root = kNoNode;
  DelayModel delay_model = DelayModel::kUnit;
  std::uint64_t seed = 1;
  /// When non-null, receives the asynchronous engine's own metrics (frame
  /// deliveries, timer events, completion time).
  AsyncMetrics* engine_metrics = nullptr;
};

/// Runs the asynchronous DFS algorithm. Requires a connected graph (the
/// token must be able to reach every node); isolated single nodes are
/// allowed when n == 1.
ScheduleResult run_dfs_schedule(const Graph& graph,
                                const DfsOptions& options = {});

}  // namespace fdlsp
