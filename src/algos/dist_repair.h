// Distributed schedule repair — the message-passing realization of the
// paper's future work (Section 9), complementing the centralized
// repair_schedule() in repair.h.
//
// Setting: the topology changed (nodes joined/failed/moved) and every node
// still holds the slots of its own outgoing arcs, some of which are now
// stale (new links uncolored, new proximities conflicting). The protocol:
//
//   Phase 0 (5 rounds): every node floods its out-arc colors to distance 2;
//     each tail deterministically identifies its *losing* arcs (a colored
//     arc loses if it conflicts with an equally-colored arc of smaller
//     ArcId under the initial snapshot), clears them, and floods the
//     clear-set so distance-2 knowledge stays consistent.
//   Phase 1: nodes with uncolored out-arcs run DistMIS-style distance-2
//     competitions (blocks of 5 rounds); block winners greedily color their
//     dirty out-arcs against their knowledge and flood the assignment.
//
// The repair cost a deployment pays is localized: only nodes within
// distance ~2 of a change send competition traffic; everyone else just
// relays during the initial exchange.
#pragma once

#include <cstdint>

#include "algos/scheduler.h"
#include "coloring/coloring.h"
#include "graph/graph.h"

namespace fdlsp {

/// Result of a distributed repair run.
struct DistRepairResult {
  ArcColoring coloring;            ///< complete, feasible
  std::size_t recolored_arcs = 0;  ///< arcs that changed or gained a color
  std::size_t num_slots = 0;
  std::size_t rounds = 0;
  std::size_t messages = 0;
  bool completed = true;  ///< engine ran to quiescence within budget
  FaultStats faults;      ///< injected faults (all zero without a plan)
  /// Transport-layer work summed across all reliable wrappers (all zero
  /// without `reliable`).
  TransportStats transport;
};

/// Repairs `stale` (a possibly conflicting, possibly partial coloring of
/// `graph`'s arcs — e.g. the output of transfer_coloring after churn) into
/// a feasible complete schedule, distributedly.
///
/// `run` (sim/run_config.h) says how the repair executes. Under a fault
/// plan the completeness/feasibility contract weakens the same way
/// run_dist_mis's does: the caller inspects `completed` and verifies the
/// coloring instead of the run aborting. The fixed-length
/// flood-and-compete structure always terminates, so an unhardened lossy
/// repair is the canonical *terminating but wrong* fault case the shrinker
/// exercises.
DistRepairResult run_distributed_repair(const Graph& graph,
                                        const ArcColoring& stale,
                                        std::uint64_t seed,
                                        const RunConfig& run = {});

}  // namespace fdlsp
