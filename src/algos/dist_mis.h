// DistMIS — the paper's synchronous Δ-approximation algorithm (Algorithm 1).
//
// Structure per outer iteration (engine phases alternate):
//   LUBY phase   : Luby's randomized MIS among the still-active nodes of the
//                  residual graph. Each Luby step takes 2 rounds (value
//                  broadcast, join broadcast).
//   COMPETE phase: the members of the MIS S compete in fixed-length blocks of
//                  2D+1 rounds. In each block every remaining S-node floods a
//                  random value to distance D (D rounds), local maxima join
//                  the secondary independent set S', color their arcs with
//                  distance-2 greedy rules, and flood the assignment back
//                  (D rounds). Losers recompete in the next block; the union
//                  of per-block winner sets partitions S into independent
//                  sets, exactly the role of the secondary MIS sequence.
// Winners retire; the engine's barrier advances phases when every node has
// decided / finished, modeling the convergecast termination detection real
// deployments use (see sync_engine.h).
//
// Variants (Sections 5 and 6):
//   kGbg     — D = 3: S' nodes are pairwise >= 4 hops apart and color ALL
//              incident arcs (Theorem 3).
//   kGeneral — D = 2: S' nodes are pairwise >= 3 hops apart and color only
//              their OUTGOING arcs, which is conflict-free by the Section 6
//              argument and reduces competition traffic by a Δ factor.
//
// Knowledge model: topology within distance 2 is static initial knowledge
// (the paper calls it the minimum required for any feasible FDLSP coloring);
// all dynamic state — random draws, MIS status, colors — travels in messages
// and is charged to the round/message counters.
#pragma once

#include <cstdint>

#include "algos/scheduler.h"
#include "graph/graph.h"
#include "sim/delay.h"

namespace fdlsp {

struct AsyncMetrics;

/// Which DistMIS variant to run.
enum class DistMisVariant {
  kGbg,      ///< distance-3 competition, color all incident arcs
  kGeneral,  ///< distance-2 competition, color outgoing arcs only
};

/// Tunables for a DistMIS run; the inherited RunConfig says how it executes.
struct DistMisOptions : RunConfig {
  DistMisVariant variant = DistMisVariant::kGbg;
  std::uint64_t seed = 1;
};

/// Runs DistMIS over the synchronous engine and returns the schedule plus
/// measured rounds/messages. The result's coloring is complete and feasible
/// for any input graph (enforced by tests; the run aborts via contract_error
/// on internal protocol violations). `drive` runs the set on the engine
/// (sim/reliable.h).
ScheduleResult run_dist_mis(const Graph& graph, const DistMisOptions& options,
                            const SyncSetDriver& drive = drive_sync_set);

/// Tunables for an asynchronous DistMIS run (see run_dist_mis_async). The
/// synchronizer needs reliable in-order frame delivery, so lossy fault
/// plans additionally require `reliable`; crash/churn plans break lockstep
/// and are unsupported on this path. The asynchronous engine rejects a
/// nonzero `shards`.
struct AsyncDistMisOptions : RunConfig {
  DistMisVariant variant = DistMisVariant::kGbg;
  std::uint64_t seed = 1;
  /// Delay model of the underlying asynchronous engine (sim/delay.h).
  DelayModel delay_model = DelayModel::kUnit;
  std::uint64_t delay_seed = 1;
  /// When non-null, receives the asynchronous engine's own metrics (frame
  /// deliveries, timer events, completion time) — the ScheduleResult's
  /// rounds/messages report the *synchronous* metrics, which match
  /// run_dist_mis exactly.
  AsyncMetrics* engine_metrics = nullptr;
};

/// Runs DistMIS on the asynchronous engine behind the α-synchronizer
/// (sim/synchronizer.h). The resulting coloring, slot count, rounds and
/// messages are byte-identical to run_dist_mis with the same variant and
/// seed — for every delay model, with or without the reliable wrapper —
/// which makes the whole synchronous corpus an oracle for the asynchronous
/// engine (check_async_equivalence in verify/differential.h).
ScheduleResult run_dist_mis_async(const Graph& graph,
                                  const AsyncDistMisOptions& options);

}  // namespace fdlsp
