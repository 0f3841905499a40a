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

class AllocAudit;
class SimTrace;
class ThreadPool;
struct AsyncMetrics;

/// Which DistMIS variant to run.
enum class DistMisVariant {
  kGbg,      ///< distance-3 competition, color all incident arcs
  kGeneral,  ///< distance-2 competition, color outgoing arcs only
};

/// Tunables for a DistMIS run.
struct DistMisOptions {
  DistMisVariant variant = DistMisVariant::kGbg;
  std::uint64_t seed = 1;
  std::size_t max_rounds = 1'000'000;
  /// Optional event observer (see sim/trace.h); not owned, may be null.
  SimTrace* trace = nullptr;
  /// Optional fault model (see sim/fault.h); not owned, may be null. With
  /// crash/churn armed, or with losses and `reliable` off, the result's
  /// coloring may be partial and `completed` false instead of aborting.
  const FaultSpec* faults = nullptr;
  /// Harden every node with the ack/retransmit wrapper (sim/reliable.h);
  /// preserves the feasibility guarantee under lossy plans at a round cost
  /// of ReliableSyncProgram::round_dilation(*faults) per algorithm round.
  bool reliable = false;
  /// Shard engine state and rounds across this pool (see
  /// SyncEngine::set_thread_pool; byte-identical to the serial run for any
  /// thread or shard count). Not owned, may be null. Ignored — serial
  /// fallback — when trace/faults are attached.
  ThreadPool* pool = nullptr;
  /// Explicit shard count for pooled runs (SyncEngine::set_shards); 0
  /// derives the count from the pool size. Meaningless without `pool`.
  std::size_t shards = 0;
  /// Optional per-round allocation auditor (support/alloc_audit.h); not
  /// owned, may be null. Unlike trace/faults it never forces the serial
  /// path — it only samples process-global allocation counters.
  AllocAudit* audit = nullptr;
};

/// Runs DistMIS over the synchronous engine and returns the schedule plus
/// measured rounds/messages. The result's coloring is complete and feasible
/// for any input graph (enforced by tests; the run aborts via contract_error
/// on internal protocol violations).
ScheduleResult run_dist_mis(const Graph& graph, const DistMisOptions& options);

/// Tunables for an asynchronous DistMIS run (see run_dist_mis_async).
struct AsyncDistMisOptions {
  DistMisVariant variant = DistMisVariant::kGbg;
  std::uint64_t seed = 1;
  /// Delay model of the underlying asynchronous engine (sim/delay.h).
  DelayModel delay_model = DelayModel::kUnit;
  std::uint64_t delay_seed = 1;
  std::size_t max_rounds = 1'000'000;
  /// Event budget of the asynchronous engine. Frames, acks, retransmits and
  /// poll timers all count, so this is much larger than the round budget.
  std::size_t max_messages = 200'000'000;
  /// Optional fault model (see sim/fault.h); not owned, may be null. The
  /// synchronizer needs reliable in-order frame delivery, so lossy plans
  /// additionally require `reliable`; crash/churn plans break lockstep and
  /// are unsupported on this path.
  const FaultSpec* faults = nullptr;
  /// Harden every node with the async ack/retransmit wrapper
  /// (sim/reliable.h), restoring exactly-once FIFO delivery under message
  /// faults.
  bool reliable = false;
  /// Shard count of the asynchronous engine (AsyncEngine::set_shards; byte-
  /// identical to serial for any value). 0 picks the serial path.
  std::size_t shards = 0;
  /// Optional event observer (sim/trace.h); forces the serial engine path.
  SimTrace* trace = nullptr;
  /// Optional per-event allocation auditor (support/alloc_audit.h).
  AllocAudit* audit = nullptr;
  /// When non-null, receives the asynchronous engine's own metrics (frame
  /// deliveries, timer events, completion time) — the ScheduleResult's
  /// rounds/messages report the *synchronous* metrics, which match
  /// run_dist_mis exactly.
  AsyncMetrics* engine_metrics = nullptr;
};

/// Runs DistMIS on the asynchronous engine behind the α-synchronizer
/// (sim/synchronizer.h). The resulting coloring, slot count, rounds and
/// messages are byte-identical to run_dist_mis with the same variant and
/// seed — for every delay model and shard count — which makes the whole
/// synchronous corpus an oracle for the asynchronous engine.
ScheduleResult run_dist_mis_async(const Graph& graph,
                                  const AsyncDistMisOptions& options);

}  // namespace fdlsp
