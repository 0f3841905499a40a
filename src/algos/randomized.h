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

/// Tunables for the randomized algorithm; the inherited RunConfig says how
/// it executes.
struct RandomizedOptions : RunConfig {
  std::uint64_t seed = 1;
};

/// Runs the randomized distance-1 algorithm; returns a complete feasible
/// schedule plus measured rounds/messages.
ScheduleResult run_randomized(const Graph& graph,
                              const RandomizedOptions& options = {});

}  // namespace fdlsp
