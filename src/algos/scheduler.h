// Common result type and dispatcher for the FDLSP scheduling algorithms.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "coloring/coloring.h"
#include "graph/graph.h"
#include "sim/fault.h"
#include "sim/reliable.h"
#include "sim/run_config.h"

namespace fdlsp {

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

/// Runs the given algorithm on `graph` with deterministic seed, in the
/// execution environment `run` (sim/run_config.h). DistMIS, distMIS-gen
/// and randomized run on the synchronous engine, DFS on the asynchronous
/// one. Centralized algorithms (D-MGC, greedy) have no engine: they ignore
/// `run` and return the clean result.
ScheduleResult run_scheduler(SchedulerKind kind, const Graph& graph,
                             std::uint64_t seed, const RunConfig& run = {});

}  // namespace fdlsp
