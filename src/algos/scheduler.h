// Common result type and dispatcher for the FDLSP scheduling algorithms.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "coloring/coloring.h"
#include "graph/graph.h"
#include "sim/fault.h"
#include "sim/reliable.h"

namespace fdlsp {

class SimTrace;
class ThreadPool;

/// Outcome of one scheduling run: the schedule plus cost metrics. Metrics
/// that do not apply to an algorithm are left at 0 (e.g. the asynchronous
/// DFS run reports time, not synchronous rounds).
///
/// On a fault-free run the coloring is complete and feasible and
/// `completed` is true (the run functions enforce this loudly). Under an
/// installed FaultPlan the contract weakens: crash/churn plans, and lossy
/// plans without the reliable wrapper, may leave the coloring partial or
/// the run uncompleted — the caller (the fault oracles) inspects
/// `completed`/`faults` instead of the run aborting.
struct ScheduleResult {
  ArcColoring coloring;       ///< complete, feasible FDLSP coloring
  std::size_t num_slots = 0;  ///< distinct colors used (TDMA frame length)
  std::size_t rounds = 0;     ///< synchronous communication rounds
  std::size_t messages = 0;   ///< total messages exchanged
  double async_time = 0.0;    ///< asynchronous completion time (time units)
  bool completed = true;      ///< engine ran to quiescence within budget
  FaultStats faults;          ///< injected faults (all zero without a plan)
  /// Transport-layer work summed across all reliable wrappers (all zero
  /// without `reliable`): retransmits, probes, detector transitions.
  TransportStats transport;
  /// Union of every node's failure-detector suspicions (sorted, unique;
  /// empty without `reliable`). Under crash plans the detector's
  /// completeness/accuracy oracles compare this against the crash schedule.
  std::vector<NodeId> suspected;
  std::string stall_diagnosis;  ///< async watchdog dump; empty when clean
};

/// The scheduling algorithms the experiment harness can run.
enum class SchedulerKind {
  kDistMisGbg,      ///< DistMIS, growth-bounded-graph variant (distance-3)
  kDistMisGeneral,  ///< DistMIS, general-graph variant (distance-2, out-arcs)
  kDfs,             ///< asynchronous DFS token algorithm
  kDmgc,            ///< D-MGC baseline [Gandham et al.]
  kGreedy,          ///< sequential greedy (centralized reference)
  kRandomized,      ///< randomized distance-1 algorithm (Section 5 remark)
};

/// Human-readable algorithm name (for tables).
std::string scheduler_name(SchedulerKind kind);

/// Runs the given algorithm on `graph` with deterministic seed.
ScheduleResult run_scheduler(SchedulerKind kind, const Graph& graph,
                             std::uint64_t seed);

/// Same, with a simulation-event observer attached to the engine for the
/// duration of the run (see sim/trace.h). Centralized algorithms (D-MGC,
/// greedy) have no engine and emit no events. `trace` may be null, in which
/// case this is exactly run_scheduler.
ScheduleResult run_scheduler_traced(SchedulerKind kind, const Graph& graph,
                                    std::uint64_t seed, SimTrace* trace);

/// Same as run_scheduler, with the synchronous engine's state and rounds
/// sharded across `pool` (see SyncEngine::set_thread_pool). Byte-identical
/// to run_scheduler for any thread count; algorithms without a synchronous
/// engine (DFS, D-MGC, greedy) ignore the pool and run as usual.
ScheduleResult run_scheduler_parallel(SchedulerKind kind, const Graph& graph,
                                      std::uint64_t seed, ThreadPool& pool);

/// Same as run_scheduler_parallel with an explicit shard count (see
/// SyncEngine::set_shards; 0 = pool-derived). Byte-identical to
/// run_scheduler for any shard count — the contract the sharded-state suite
/// of engine_parallel_test pins across scenario families.
ScheduleResult run_scheduler_sharded(SchedulerKind kind, const Graph& graph,
                                     std::uint64_t seed, ThreadPool& pool,
                                     std::size_t shards);

/// Runs the algorithm under a deterministic fault model (sim/fault.h).
/// `reliable` additionally hardens every node with the ack/retransmit
/// wrapper (sim/reliable.h) — required for the run to keep its feasibility
/// guarantee under lossy plans. Centralized algorithms (D-MGC, greedy) have no
/// engine and execute fault-free; their result is the clean one. `trace`
/// may be null. `shards` replays the run on the sharded engine path
/// (AsyncEngine::set_shards for DFS, SyncEngine::set_shards for the
/// synchronizer-based schedulers; 0 = serial) — byte-identical to serial
/// for any value, so fault repro lines replay unchanged on either path.
ScheduleResult run_scheduler_faulted(
    SchedulerKind kind, const Graph& graph, std::uint64_t seed,
    const FaultSpec& faults, bool reliable, SimTrace* trace = nullptr,
    std::size_t shards = 0);

}  // namespace fdlsp
