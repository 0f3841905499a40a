// Randomized distance-1 FDLSP algorithm.
//
// Section 5 of the paper remarks: "It is possible to bypass the distance-2
// knowledge requirement and color with distance-1 knowledge only by
// randomization. We have attempted a randomized algorithm for the FDLSP,
// but it produced longer schedules with speed that is close to the
// independent set based algorithm." This module reproduces that attempt so
// the claim is measurable (see bench/ablation_randomized).
//
// Protocol (synchronous, 3 rounds per step):
//   1. every node broadcasts the tentative colors of its unconfirmed
//      out-arcs (and which arcs are already final);
//   2. every node checks the conflicts it can *see* — any conflicting arc
//      pair has a common endpoint or a receiver adjacent to the competing
//      transmitter, so some node observes both colors with distance-1
//      knowledge only — and vetoes the lower-priority arc to its owner;
//   3. owners finalize arcs that drew no veto; vetoed arcs redraw uniformly
//      from a per-arc range that widens with each retry (guaranteeing
//      convergence), and the next step begins.
//
// Distance-1 knowledge cannot *avoid* conflicts proactively, only detect
// them, which is exactly why the resulting schedules are longer.
#pragma once

#include <cstdint>

#include "algos/scheduler.h"
#include "graph/graph.h"

namespace fdlsp {

class SimTrace;
class ThreadPool;

/// Tunables for the randomized algorithm.
struct RandomizedOptions {
  std::uint64_t seed = 1;
  std::size_t max_rounds = 1'000'000;
  /// Optional event observer (see sim/trace.h); not owned, may be null.
  SimTrace* trace = nullptr;
  /// Optional fault model (see sim/fault.h); not owned, may be null. With
  /// crash/churn armed, or with losses and `reliable` off, the result's
  /// coloring may be partial and `completed` false instead of aborting.
  const FaultSpec* faults = nullptr;
  /// Harden every node with the ack/retransmit wrapper (sim/reliable.h).
  bool reliable = false;
  /// Shard engine state and rounds across this pool (see
  /// SyncEngine::set_thread_pool; byte-identical to the serial run for any
  /// thread or shard count). Not owned, may be null. Ignored — serial
  /// fallback — when trace/faults are attached.
  ThreadPool* pool = nullptr;
  /// Explicit shard count for pooled runs (SyncEngine::set_shards); 0
  /// derives the count from the pool size. Meaningless without `pool`.
  std::size_t shards = 0;
};

/// Runs the randomized distance-1 algorithm; returns a complete feasible
/// schedule plus measured rounds/messages.
ScheduleResult run_randomized(const Graph& graph,
                              const RandomizedOptions& options = {});

}  // namespace fdlsp
