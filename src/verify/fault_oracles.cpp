#include "verify/fault_oracles.h"

#include <algorithm>
#include <vector>

#include "algos/dist_repair.h"
#include "coloring/checker.h"
#include "graph/arcs.h"
#include "support/check.h"
#include "verify/shrink.h"

namespace fdlsp {

namespace {

std::string describe(const char* oracle, const std::string& detail) {
  return std::string(oracle) + ": " + detail;
}

/// Nodes within shortest-path distance <= radius of any source (multi-
/// source BFS). Sources themselves are included.
std::vector<char> ball_of(const Graph& graph,
                          const std::vector<NodeId>& sources,
                          std::size_t radius) {
  std::vector<std::size_t> dist(graph.num_nodes(),
                                static_cast<std::size_t>(-1));
  std::vector<NodeId> frontier;
  for (NodeId v : sources) {
    if (dist[v] != 0) {
      dist[v] = 0;
      frontier.push_back(v);
    }
  }
  for (std::size_t d = 0; d < radius && !frontier.empty(); ++d) {
    std::vector<NodeId> next;
    for (NodeId v : frontier) {
      for (const NeighborEntry& entry : graph.neighbors(v)) {
        if (dist[entry.to] != static_cast<std::size_t>(-1)) continue;
        dist[entry.to] = d + 1;
        next.push_back(entry.to);
      }
    }
    frontier = std::move(next);
  }
  std::vector<char> inside(graph.num_nodes(), 0);
  for (NodeId v = 0; v < graph.num_nodes(); ++v)
    if (dist[v] != static_cast<std::size_t>(-1)) inside[v] = 1;
  return inside;
}

}  // namespace

OracleVerdict check_fault_result(const Graph& graph,
                                 const ScheduleResult& result,
                                 const FaultSpec* spec) {
  OracleVerdict verdict;
  const ArcView view(graph);
  if (!result.completed) {
    verdict.ok = false;
    std::string detail = "run did not reach quiescence";
    if (!result.stall_diagnosis.empty())
      detail += " (" + result.stall_diagnosis + ")";
    verdict.failure = describe("fault-quiescence", detail);
    return verdict;
  }
  if (result.coloring.num_arcs() != view.num_arcs()) {
    verdict.ok = false;
    verdict.failure = describe(
        "fault-quiescence",
        "coloring covers " + std::to_string(result.coloring.num_arcs()) +
            " arcs, graph has " + std::to_string(view.num_arcs()));
    return verdict;
  }

  // Exempt the faulted neighborhood when the plan can sever knowledge
  // paths: check_crash_recovery owns those arcs.
  std::vector<char> exempt_node(graph.num_nodes(), 0);
  if (spec != nullptr &&
      (spec->crash_fraction > 0.0 || spec->link_down_fraction > 0.0)) {
    const FaultPlan plan(*spec, graph);
    std::vector<NodeId> region = plan.crashed_nodes();
    for (EdgeId e : plan.churned_edges()) {
      region.push_back(graph.edge(e).u);
      region.push_back(graph.edge(e).v);
    }
    if (!region.empty()) exempt_node = ball_of(graph, region, 1);
  }
  ArcColoring scoped = result.coloring;
  std::size_t exempt_arcs = 0;
  for (ArcId a = 0; a < view.num_arcs(); ++a) {
    if (exempt_node[view.tail(a)] == 0 && exempt_node[view.head(a)] == 0)
      continue;
    scoped.clear(a);
    ++exempt_arcs;
  }

  if (scoped.num_colored() + exempt_arcs < view.num_arcs()) {
    verdict.ok = false;
    verdict.failure = describe(
        "fault-quiescence",
        std::to_string(view.num_arcs() - exempt_arcs -
                       scoped.num_colored()) +
            " arcs outside the faulted region left uncolored");
    return verdict;
  }
  if (const auto witness = find_violation(view, scoped)) {
    verdict.ok = false;
    verdict.failure = describe(
        "fault-quiescence",
        "arcs " + std::to_string(witness->a) + " and " +
            std::to_string(witness->b) + " conflict but share slot " +
            std::to_string(scoped.color(witness->a)) + " (" +
            std::to_string(count_violations(view, scoped)) +
            " violating pairs total)");
    return verdict;
  }
  return verdict;
}

OracleVerdict check_fault_quiescence(SchedulerKind kind, const Graph& graph,
                                     std::uint64_t seed,
                                     const FaultSpec& spec) {
  const ScheduleResult first =
      run_scheduler(kind, graph, seed, {.faults = &spec, .reliable = true});
  OracleVerdict verdict = check_fault_result(graph, first, &spec);
  if (!verdict.ok) return verdict;

  const ScheduleResult second =
      run_scheduler(kind, graph, seed, {.faults = &spec, .reliable = true});
  for (ArcId a = 0; a < first.coloring.num_arcs(); ++a) {
    if (first.coloring.color(a) == second.coloring.color(a)) continue;
    verdict.ok = false;
    verdict.failure = describe(
        "fault-determinism",
        "arc " + std::to_string(a) + " colored " +
            std::to_string(first.coloring.color(a)) + " then " +
            std::to_string(second.coloring.color(a)) +
            " across identical faulted runs");
    return verdict;
  }
  if (first.num_slots != second.num_slots) {
    verdict.ok = false;
    verdict.failure =
        describe("fault-determinism",
                 "slot counts diverged across identical faulted runs");
  }
  return verdict;
}

OracleVerdict check_burst_quiescence(SchedulerKind kind, const Graph& graph,
                                     std::uint64_t seed,
                                     const FaultSpec& spec) {
  OracleVerdict verdict = check_fault_quiescence(kind, graph, seed, spec);
  if (!verdict.ok) return verdict;
  const ScheduleResult faulted =
      run_scheduler(kind, graph, seed, {.faults = &spec, .reliable = true});
  // Round bound: the wrapper restores perfect-channel semantics, so the
  // inner protocol consumes the same rounds as a clean run and the outer
  // round count is bounded by clean rounds times the provisioned dilation,
  // plus a drain margin for the final window and any detector probe tail.
  // Crash plans change the inner protocol's behavior (dead nodes stop
  // participating), so the clean run is no yardstick there; and async
  // schedulers have no rounds — their anti-livelock statement is the event
  // watchdog behind `completed`, already checked above.
  if (faulted.rounds > 0 && spec.crash_fraction == 0.0) {
    const ScheduleResult clean = run_scheduler(kind, graph, seed);
    const std::size_t dilation = ReliableSyncProgram::round_dilation(spec);
    const std::size_t bound = (clean.rounds + 8) * dilation;
    if (faulted.rounds > bound) {
      verdict.ok = false;
      verdict.failure = describe(
          "burst-quiescence",
          "faulted run took " + std::to_string(faulted.rounds) +
              " rounds, bound is " + std::to_string(bound) + " (clean " +
              std::to_string(clean.rounds) + " rounds x dilation " +
              std::to_string(dilation) + " + drain)");
    }
  }
  return verdict;
}

OracleVerdict check_detector(SchedulerKind kind, const Graph& graph,
                             std::uint64_t seed, const FaultSpec& spec) {
  OracleVerdict verdict;
  const ScheduleResult result =
      run_scheduler(kind, graph, seed, {.faults = &spec, .reliable = true});
  // Consistency: under the adaptive transport, frames die only through the
  // suspected -> dead path, so abandonment without a suspicion means the
  // state machine was bypassed; and re-trusts consume prior suspicions.
  if (result.transport.abandoned > 0 && result.transport.suspicions == 0) {
    verdict.ok = false;
    verdict.failure = describe(
        "detector-consistency",
        std::to_string(result.transport.abandoned) +
            " frames abandoned without any suspicion");
    return verdict;
  }
  if (result.transport.retrusts > result.transport.suspicions) {
    verdict.ok = false;
    verdict.failure = describe(
        "detector-consistency",
        std::to_string(result.transport.retrusts) + " re-trusts exceed " +
            std::to_string(result.transport.suspicions) + " suspicions");
    return verdict;
  }
  // Accuracy: only churn/outage windows can silence a live peer past the
  // loss budget, so without them every suspicion must point at a crashed
  // node (and under loss-only specs there are none to point at).
  if (spec.link_down_fraction == 0.0 && spec.region_count == 0) {
    const FaultPlan plan(spec, graph);
    const std::vector<NodeId> crashed = plan.crashed_nodes();
    for (NodeId v : result.suspected) {
      if (std::binary_search(crashed.begin(), crashed.end(), v)) continue;
      verdict.ok = false;
      verdict.failure = describe(
          "detector-accuracy",
          "live node " + std::to_string(v) +
              " was suspected under a bounded-loss spec");
      return verdict;
    }
  }
  return verdict;
}

CrashRecoveryReport check_crash_recovery(SchedulerKind kind,
                                         const Graph& graph,
                                         std::uint64_t seed,
                                         const FaultSpec& spec) {
  CrashRecoveryReport report;
  const ArcView view(graph);
  const ScheduleResult clean = run_scheduler(kind, graph, seed);

  // Orphan the schedule the way the fault model says: a crashed node
  // recovers with amnesia (its out-arc slots are gone), a churned edge
  // forgets both directions.
  const FaultPlan plan(spec, graph);
  const std::vector<NodeId> crashed = plan.crashed_nodes();
  const std::vector<EdgeId> churned = plan.churned_edges();
  ArcColoring stale = clean.coloring;
  for (NodeId v : crashed)
    for (const NeighborEntry& entry : graph.neighbors(v))
      stale.clear(view.arc_from(entry.edge, v));
  for (EdgeId e : churned) {
    stale.clear(static_cast<ArcId>(e << 1));
    stale.clear(static_cast<ArcId>((e << 1) | 1u));
  }
  report.orphaned_arcs = clean.coloring.num_colored() - stale.num_colored();
  if (report.orphaned_arcs == 0) return report;  // nothing to repair

  const DistRepairResult repaired =
      run_distributed_repair(graph, stale, seed);
  report.repair_rounds = repaired.rounds;
  report.repair_messages = repaired.messages;

  if (!repaired.coloring.complete()) {
    report.ok = false;
    report.failure = describe("recovery-feasibility",
                              "repair left arcs uncolored");
    return report;
  }
  if (const auto witness = find_violation(view, repaired.coloring)) {
    report.ok = false;
    report.failure = describe(
        "recovery-feasibility",
        "arcs " + std::to_string(witness->a) + " and " +
            std::to_string(witness->b) + " conflict after repair");
    return report;
  }

  // Faulted region: crashed nodes plus both endpoints of churned edges.
  std::vector<NodeId> region = crashed;
  for (EdgeId e : churned) {
    region.push_back(graph.edge(e).u);
    region.push_back(graph.edge(e).v);
  }
  const std::vector<char> near_fault = ball_of(graph, region, 2);

  for (ArcId a = 0; a < view.num_arcs(); ++a) {
    const bool was = stale.is_colored(a);
    const bool changed =
        !was || repaired.coloring.color(a) != stale.color(a);
    if (!changed) continue;
    ++report.changed_arcs;
    if (was) {
      // Intact arcs must survive repair untouched: the protocol only
      // recolors dirty arcs, and stale (clean minus orphans) is
      // conflict-free, so nothing else may move.
      report.ok = false;
      report.failure = describe(
          "recovery-stability",
          "intact arc " + std::to_string(a) + " changed from slot " +
              std::to_string(stale.color(a)) + " to " +
              std::to_string(repaired.coloring.color(a)));
      return report;
    }
    if (near_fault[view.tail(a)] == 0) {
      report.ok = false;
      report.failure = describe(
          "recovery-locality",
          "arc " + std::to_string(a) + " (tail " +
              std::to_string(view.tail(a)) +
              ") was repaired more than 2 hops from the faulted region");
      return report;
    }
  }
  return report;
}

FaultShrinkOutcome shrink_fault_case(const Graph& start, const FaultSpec& spec,
                                     const FaultFailingPredicate& still_fails,
                                     const ShrinkOptions& options) {
  FDLSP_REQUIRE(still_fails(start, spec),
                "shrink_fault_case requires a failing input");
  FaultShrinkOutcome outcome;
  outcome.graph = start;
  outcome.spec = spec;
  outcome.checks = 1;
  const auto budget_left = [&]() {
    return outcome.checks < options.max_checks
               ? options.max_checks - outcome.checks
               : 0;
  };
  const auto try_spec = [&](const FaultSpec& candidate) {
    if (candidate == outcome.spec || budget_left() == 0) return false;
    ++outcome.checks;
    if (!still_fails(outcome.graph, candidate)) return false;
    outcome.spec = candidate;
    return true;
  };
  const auto shrink_graph_pass = [&](std::size_t max_checks) {
    if (max_checks == 0) return;
    ShrinkOptions graph_options;
    graph_options.max_checks = max_checks;
    const ShrinkOutcome shrunk = shrink_graph(
        outcome.graph,
        [&](const Graph& candidate) {
          return still_fails(candidate, outcome.spec);
        },
        graph_options);
    outcome.graph = shrunk.graph;
    outcome.checks += shrunk.checks;
  };

  // Pass 1: graph, under the original spec (the bulk of the budget: graph
  // size dominates how readable the reproducer is).
  shrink_graph_pass(budget_left() / 2);

  // Pass 2: spec, greedily to a fixpoint. Disarming a whole fault class
  // beats any rate tweak, so try those first each round.
  const FaultSpec defaults;
  bool progressed = true;
  while (progressed && budget_left() > 0) {
    progressed = false;
    // Disarm whole classes first: the doubles...
    for (double FaultSpec::* rate :
         {&FaultSpec::drop_rate, &FaultSpec::duplicate_rate,
          &FaultSpec::corrupt_rate, &FaultSpec::burst_rate,
          &FaultSpec::crash_fraction, &FaultSpec::link_down_fraction}) {
      if (outcome.spec.*rate == 0.0) continue;
      FaultSpec candidate = outcome.spec;
      candidate.*rate = 0.0;
      // Disarming bursts also resets the knobs only bursts read, so the
      // shrunk spec prints minimal.
      if (rate == &FaultSpec::burst_rate) {
        candidate.burst_recover = defaults.burst_recover;
        candidate.burst_loss = defaults.burst_loss;
        candidate.burst_max_run = defaults.burst_max_run;
        candidate.burst_cap = defaults.burst_cap;
      }
      if (try_spec(candidate)) progressed = true;
    }
    // ...then the PRR matrix and the outage regions.
    if (!outcome.spec.prr_levels.empty()) {
      FaultSpec candidate = outcome.spec;
      candidate.prr_levels.clear();
      if (try_spec(candidate)) progressed = true;
    }
    if (outcome.spec.region_count > 0) {
      FaultSpec candidate = outcome.spec;
      candidate.region_count = 0;
      candidate.region_radius = defaults.region_radius;
      candidate.region_horizon = defaults.region_horizon;
      candidate.region_duration = defaults.region_duration;
      if (try_spec(candidate)) progressed = true;
    }
    if (outcome.spec.seed != defaults.seed) {
      FaultSpec candidate = outcome.spec;
      candidate.seed = defaults.seed;
      if (try_spec(candidate)) progressed = true;
    }
    if (outcome.spec.max_losses_per_channel !=
        defaults.max_losses_per_channel) {
      FaultSpec candidate = outcome.spec;
      candidate.max_losses_per_channel = defaults.max_losses_per_channel;
      if (try_spec(candidate)) progressed = true;
    }
    for (std::uint64_t FaultSpec::* knob :
         {&FaultSpec::burst_max_run, &FaultSpec::burst_cap}) {
      if (outcome.spec.*knob == defaults.*knob) continue;
      FaultSpec candidate = outcome.spec;
      candidate.*knob = defaults.*knob;
      if (try_spec(candidate)) progressed = true;
    }
    // Fewer regions beats a smaller radius: halve the disc count too.
    if (outcome.spec.region_count > 1) {
      FaultSpec candidate = outcome.spec;
      candidate.region_count = outcome.spec.region_count / 2;
      if (try_spec(candidate)) progressed = true;
    }
    for (double FaultSpec::* rate :
         {&FaultSpec::drop_rate, &FaultSpec::duplicate_rate,
          &FaultSpec::corrupt_rate, &FaultSpec::burst_rate,
          &FaultSpec::crash_fraction, &FaultSpec::link_down_fraction}) {
      if (outcome.spec.*rate <= 0.01) continue;
      FaultSpec candidate = outcome.spec;
      candidate.*rate = outcome.spec.*rate / 2.0;
      if (try_spec(candidate)) progressed = true;
    }
  }

  // Pass 3: the simpler spec may unlock further graph reduction.
  shrink_graph_pass(budget_left());
  return outcome;
}

std::string fault_repro_command(const Scenario& scenario,
                                const std::string& algorithm,
                                const FaultSpec& spec) {
  return repro_command(scenario, algorithm) +
         " --faults=" + format_fault_spec(spec);
}

}  // namespace fdlsp
