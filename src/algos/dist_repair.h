// Distributed schedule repair — the message-passing realization of the
// paper's future work (Section 9), complementing the centralized
// repair_schedule() in repair.h.
//
// Setting: the topology changed (nodes joined/failed/moved) and every node
// still holds the slots of its own outgoing arcs, some of which are now
// stale (new links uncolored, new proximities conflicting). The protocol:
//
//   Phase 0 (5 rounds): every node floods its out-arc colors to distance
//     2; each tail deterministically identifies its *losing* arcs (a
//     colored arc loses if it conflicts with an equally-colored arc of
//     smaller ArcId under the initial colors), clears them, and floods the
//     clear-set so distance-2 knowledge stays consistent.
//   Phase 1: nodes with uncolored out-arcs run DistMIS's competition block
//     in its general configuration (algos/competition.h: distance-2
//     floods, blocks of 5 rounds); block winners greedily color their
//     dirty out-arcs against what they learned and flood the assignment.
//
// Event-local runs. Given the touched nodes T — the endpoints of the
// changed links, which are the nodes a radio tells — only the wake ball
// N³[T] runs the protocol. The nodes of T start awake; every other node
// starts finished, so the engine calls it only when a TTL-bounded flood
// reaches it, and then it only relays. The wake rides on the state flood:
// a State carries in its block word how many more hops it wakes (3 from
// T), and a dormant node that hears one from its origin with a positive
// count wakes and floods its own State at once, with one hop less. So
// the states go out in rounds 0 to 3 as the wake spreads, the clearing
// round moves from 2 to 5 and phase 0 lasts 8 rounds, and the wake costs
// no message of its own: a node of N²[T] outside T keeps all its links,
// so it has colored out-arcs and floods a State anyway, and a node of T
// whose links are all new has only touched neighbors.
//
// Why the wake radius is 3. Let the stale coloring be the transfer of a
// schedule that was feasible before the event. Surviving arcs kept their
// colors, so two of them clash only if they newly conflict. A shared
// endpoint conflicts in both graphs, so a new conflict is a hidden
// terminal over a new link from one arc's head to the other's tail
// (coloring/conflict.h); that link's endpoints are in T, so both tails
// lie in N[T]. A new arc has its tail in T. So every node that clears an
// arc, and every competitor, lies in N[T]. What either reads is its
// kGeneral R(v): arcs whose tails lie within two hops of it, so inside
// N³[T]. A node farther out holds no color those nodes read and changes
// nothing: the local run's coloring and recolored count equal the global
// run's, its messages are the global run's minus the states of the nodes
// outside the ball, and its senders lie within four hops of T (the ball
// plus one relay hop).
//
// Awake nodes keep what they learn in one LearnedColors store
// (algos/learned_colors.h) over their kGeneral readable arcs, which is
// exactly the set both phases read; a local run builds regions for the
// wake ball only, and a node outside it reports its stale colors.
// Malformed messages are dropped, so an unhardened run under corruption
// ends in a verdict instead of aborting; a wake count that corruption
// carries past the ball is lost the same way.
#pragma once

#include <cstdint>
#include <span>

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
/// exercises. `drive` runs the set on the engine (sim/reliable.h).
///
/// `touched` makes the run event-local (see above): only the wake ball
/// N³[touched] runs the protocol. The endpoints of an event's changed
/// links qualify when `stale` is the transfer of a complete feasible
/// schedule; in general T must hold the tail of every uncolored arc, both
/// tails of every clashing pair must lie in N[T], and a node of N²[T]
/// outside T must have a colored out-arc. Empty (the default), every node
/// starts awake and phase 0 lasts 5 rounds.
DistRepairResult run_distributed_repair(
    const Graph& graph, const ArcColoring& stale, std::uint64_t seed,
    const RunConfig& run = {}, const SyncSetDriver& drive = drive_sync_set,
    std::span<const NodeId> touched = {});

}  // namespace fdlsp
