// Property-based fault-injection sweep (the `faulttest` battery).
//
// Every distributed scheduler × all six graph families × the fault-plan
// classes (bounded loss, duplication+corruption, crashes, link churn) ×
// the three async delay models, judged by the fault-aware oracles:
// fault-quiescence (hardened runs terminate with a feasible, deterministic
// schedule outside the faulted region) and recovery-locality (dist_repair
// heals crash/churn orphans touching only the distance-2 neighborhood).
// The last tests pin the delta-debugging story: a seeded failing fault
// plan shrinks to a minimal (graph, spec) pair with a replayable repro
// string.
//
// The per-scenario sweeps ride the sharded run_scenarios driver
// (verify/differential.h): batches fan out across a ThreadPool while
// failure reporting stays lowest-index-first, identical to serial.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <initializer_list>
#include <string>
#include <vector>

#include "algos/dfs_schedule.h"
#include "algos/dist_repair.h"
#include "algos/scheduler.h"
#include "coloring/checker.h"
#include "coloring/greedy.h"
#include "fnv64.h"
#include "graph/algorithms.h"
#include "graph/arcs.h"
#include "graph/generators.h"
#include "graph/graph.h"
#include "sim/delay.h"
#include "sim/fault.h"
#include "sim/reliable.h"
#include "support/thread_pool.h"
#include "verify/differential.h"
#include "verify/fault_oracles.h"
#include "verify/scenario.h"

namespace fdlsp {
namespace {

/// One pool for the whole battery; workers idle between tests.
ThreadPool& sweep_pool() {
  static ThreadPool pool(4);
  return pool;
}

constexpr std::size_t kScenariosPerClass = 18;  // 3 per family
constexpr std::size_t kMaxNodes = 12;

/// The fault-plan classes the sweep crosses with every scenario.
std::vector<FaultSpec> fault_classes(std::uint64_t seed) {
  FaultSpec loss;
  loss.seed = seed;
  loss.drop_rate = 0.2;

  FaultSpec noise;
  noise.seed = seed;
  noise.duplicate_rate = 0.15;
  noise.corrupt_rate = 0.1;

  FaultSpec crash;
  crash.seed = seed;
  crash.drop_rate = 0.05;
  crash.crash_fraction = 0.2;

  FaultSpec churn;
  churn.seed = seed;
  churn.link_down_fraction = 0.3;
  churn.link_down_duration = 3.0;

  return {loss, noise, crash, churn};
}

/// The correlated-loss classes (issue 9): Gilbert–Elliott bursts, the PRR
/// matrix, region outages, and a mixed plan arming all three on top of
/// i.i.d. loss. Judged by the graceful-degradation oracles below rather
/// than plain quiescence.
std::vector<FaultSpec> correlated_classes(std::uint64_t seed) {
  FaultSpec burst;
  burst.seed = seed;
  burst.burst_rate = 0.25;
  burst.burst_recover = 0.25;
  burst.burst_loss = 0.9;

  FaultSpec prr;
  prr.seed = seed;
  prr.prr_levels = {0.9, 0.7, 0.5};

  FaultSpec region;
  region.seed = seed;
  region.region_count = 2;
  region.region_radius = 0.4;
  region.region_horizon = 12.0;
  region.region_duration = 4.0;

  FaultSpec mixed;
  mixed.seed = seed;
  mixed.drop_rate = 0.1;
  mixed.burst_rate = 0.15;
  mixed.prr_levels = {0.8};
  mixed.region_count = 1;

  return {burst, prr, region, mixed};
}

class FaultSweep : public ::testing::TestWithParam<SchedulerKind> {};

TEST_P(FaultSweep, HardenedRunsPassFaultOracles) {
  const SchedulerKind kind = GetParam();
  const bool needs_connected = kind == SchedulerKind::kDfs;
  const std::uint64_t base_seed =
      0xfa171ULL * (static_cast<std::uint64_t>(kind) + 1) + 3;
  const std::vector<Scenario> scenarios =
      sample_scenarios(kScenariosPerClass, base_seed, kMaxNodes);

  const ScenarioCheckFn check = [kind, needs_connected](
                                    const Scenario& scenario, std::size_t) {
    ScenarioOutcome outcome;
    const Graph graph = materialize(scenario);
    if (needs_connected && !is_connected(graph)) return outcome;
    for (const FaultSpec& spec : fault_classes(scenario.seed + 1)) {
      // A token-passing traversal cannot survive its token holder
      // fail-stopping: the guarantee for DFS under crash plans is graceful
      // degradation — the run returns (give-up + watchdog, no hang),
      // deterministically, and whatever it did color obeys the scoped
      // feasibility contract.
      if (kind == SchedulerKind::kDfs && spec.crash_fraction > 0.0) {
        const ScheduleResult first = run_scheduler(
            kind, graph, scenario.seed, {.faults = &spec, .reliable = true});
        const ScheduleResult second = run_scheduler(
            kind, graph, scenario.seed, {.faults = &spec, .reliable = true});
        if (first.completed != second.completed ||
            first.messages != second.messages)
          outcome.failures.push_back(
              "crash-plan rerun diverged\nrepro: " +
              fault_repro_command(scenario, scheduler_name(kind), spec));
        if (first.completed) {
          const OracleVerdict verdict =
              check_fault_result(graph, first, &spec);
          if (!verdict.ok)
            outcome.failures.push_back(
                verdict.failure + "\nrepro: " +
                fault_repro_command(scenario, scheduler_name(kind), spec));
        }
        ++outcome.checks;
        continue;
      }
      const OracleVerdict verdict =
          check_fault_quiescence(kind, graph, scenario.seed, spec);
      if (!verdict.ok)
        outcome.failures.push_back(
            verdict.failure + "\nrepro: " +
            fault_repro_command(scenario, scheduler_name(kind), spec));
      ++outcome.checks;
    }
    return outcome;
  };
  const ScenarioSweep sweep = run_scenarios(scenarios, check, &sweep_pool());
  EXPECT_TRUE(sweep.ok()) << sweep.failure_digest();
  // The connectivity filter must not silently hollow out the sweep.
  EXPECT_GE(sweep.checks, 4 * kScenariosPerClass / 2);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, FaultSweep,
    ::testing::Values(SchedulerKind::kDistMisGbg,
                      SchedulerKind::kDistMisGeneral,
                      SchedulerKind::kRandomized, SchedulerKind::kDfs,
                      SchedulerKind::kDmgc),
    [](const auto& param_info) {
      std::string name = scheduler_name(param_info.param);
      for (char& ch : name)
        if (ch == '-') ch = '_';
      return name;
    });

// The correlated-loss sweep: every distributed scheduler × the burst /
// PRR / region / mixed classes, judged by the graceful-degradation pair —
// burst-quiescence (bounded correlated loss delays the schedule within the
// provisioned dilation, never livelocks it) and the detector oracle
// (suspicions stay accurate and consistent).
class CorrelatedSweep : public ::testing::TestWithParam<SchedulerKind> {};

TEST_P(CorrelatedSweep, AdaptiveTransportPassesDegradationOracles) {
  const SchedulerKind kind = GetParam();
  const bool needs_connected = kind == SchedulerKind::kDfs;
  const std::uint64_t base_seed =
      0xb1257ULL * (static_cast<std::uint64_t>(kind) + 1) + 9;
  const std::vector<Scenario> scenarios =
      sample_scenarios(12, base_seed, /*max_nodes=*/10);

  const ScenarioCheckFn check = [kind, needs_connected](
                                    const Scenario& scenario, std::size_t) {
    ScenarioOutcome outcome;
    const Graph graph = materialize(scenario);
    if (needs_connected && !is_connected(graph)) return outcome;
    for (const FaultSpec& spec : correlated_classes(scenario.seed + 3)) {
      for (const auto& oracle : {check_burst_quiescence, check_detector}) {
        const OracleVerdict verdict =
            oracle(kind, graph, scenario.seed, spec);
        if (!verdict.ok)
          outcome.failures.push_back(
              verdict.failure + "\nrepro: " +
              fault_repro_command(scenario, scheduler_name(kind), spec));
        ++outcome.checks;
      }
    }
    return outcome;
  };
  const ScenarioSweep sweep = run_scenarios(scenarios, check, &sweep_pool());
  EXPECT_TRUE(sweep.ok()) << sweep.failure_digest();
  EXPECT_GE(sweep.checks, 8 * 12 / 2);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, CorrelatedSweep,
    ::testing::Values(SchedulerKind::kDistMisGbg,
                      SchedulerKind::kDistMisGeneral,
                      SchedulerKind::kRandomized, SchedulerKind::kDfs,
                      SchedulerKind::kDmgc),
    [](const auto& param_info) {
      std::string name = scheduler_name(param_info.param);
      for (char& ch : name)
        if (ch == '-') ch = '_';
      return name;
    });

// DFS under a lossy plan across all three delay models: the timer-based
// retransmit path must be insensitive to how the adversary schedules
// deliveries.
TEST(FaultInjectionTest, DfsSurvivesLossAcrossDelayModels) {
  const std::vector<Scenario> scenarios = sample_scenarios(12, 0xde1a, 10);
  FaultSpec spec;
  spec.seed = 13;
  spec.drop_rate = 0.2;
  spec.duplicate_rate = 0.1;
  std::size_t checked = 0;
  for (const Scenario& scenario : scenarios) {
    const Graph graph = materialize(scenario);
    if (!is_connected(graph)) continue;
    for (const DelayModel model :
         {DelayModel::kUnit, DelayModel::kUniformRandom,
          DelayModel::kAdversarial}) {
      DfsOptions options;
      options.seed = scenario.seed;
      options.delay_model = model;
      options.faults = &spec;
      options.reliable = true;
      const ScheduleResult result = run_dfs_schedule(graph, options);
      const OracleVerdict verdict = check_fault_result(graph, result);
      EXPECT_TRUE(verdict.ok)
          << delay_model_name(model) << ": " << verdict.failure << "\nrepro: "
          << fault_repro_command(scenario, "DFS", spec);
      ++checked;
    }
  }
  EXPECT_GE(checked, 12u);
}

/// Runs each of `kinds` unhardened under `spec` on the n=12 instances of
/// `families` x seeds 1-3. Every run must return a result for the fault
/// oracles to judge, pass or fail, instead of aborting with a
/// contract_error, and the plan must corrupt at least one message (drop
/// one, for a plan that does not corrupt).
void expect_verdicts_under_corruption(
    std::initializer_list<GraphFamily> families,
    std::initializer_list<SchedulerKind> kinds, const FaultSpec& spec) {
  std::size_t judged = 0;
  std::size_t corrupted = 0;
  std::size_t duplicated = 0;
  std::size_t dropped = 0;
  for (const GraphFamily family : families) {
    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
      Scenario scenario;
      scenario.family = family;
      scenario.n = 12;
      scenario.density = 0.4;
      scenario.seed = seed;
      const Graph graph = materialize(scenario);
      for (const SchedulerKind kind : kinds) {
        const std::string repro =
            fault_repro_command(scenario, scheduler_name(kind), spec) +
            " --reliable=0";
        ScheduleResult result;
        ASSERT_NO_THROW(result =
                            run_scheduler(kind, graph, seed, {.faults = &spec}))
            << repro;
        const OracleVerdict verdict = check_fault_result(graph, result);
        EXPECT_TRUE(verdict.ok || !verdict.failure.empty()) << repro;
        corrupted += result.faults.corrupted;
        duplicated += result.faults.duplicated;
        dropped += result.faults.dropped;
        ++judged;
      }
    }
  }
  EXPECT_EQ(judged, 3 * families.size() * kinds.size());
  if (spec.corrupt_rate > 0.0)
    EXPECT_GT(corrupted, 0u) << "the plan never corrupted a message";
  else if (spec.duplicate_rate > 0.0)
    EXPECT_GT(duplicated, 0u) << "the plan never duplicated a message";
  else
    EXPECT_GT(dropped, 0u) << "the plan never dropped a message";
}

// Unhardened DistMIS under corruption: a corrupted tag, length, origin,
// TTL, arc or color is treated as a lost message, never trusted (it used
// to die on a corrupted color or an unknown tag).
TEST(FaultInjectionTest, UnhardenedDistMisTreatsMalformedMessagesAsLost) {
  FaultSpec spec;
  spec.seed = 7;
  spec.drop_rate = 0.1;
  spec.duplicate_rate = 0.1;
  spec.corrupt_rate = 0.05;
  expect_verdicts_under_corruption(
      {GraphFamily::kUdg, GraphFamily::kGrid, GraphFamily::kRing},
      {SchedulerKind::kDistMisGbg, SchedulerKind::kDistMisGeneral}, spec);
}

// Unhardened DFS likewise treats a corrupted tag or an out-of-range degree,
// arc or color as a lost message (it used to die on an unknown tag), and a
// repeated REQ, REP, SubRep, Ack, Token or TokenBack as a lost one too (it
// used to stop at its protocol-state checks when one arrived twice).
TEST(FaultInjectionTest, UnhardenedDfsTreatsMalformedMessagesAsLost) {
  FaultSpec spec;
  spec.seed = 7;
  spec.drop_rate = 0.1;
  spec.corrupt_rate = 0.05;
  expect_verdicts_under_corruption(
      {GraphFamily::kGrid, GraphFamily::kTree, GraphFamily::kRing},
      {SchedulerKind::kDfs}, spec);
  expect_verdicts_under_corruption(
      {GraphFamily::kGrid, GraphFamily::kTree, GraphFamily::kRing},
      {SchedulerKind::kDfs}, parse_fault_spec("dup=0.2,fseed=9"));
}

// Unhardened randomized treats a corrupted State triple or Veto arc as a
// lost message, and leaves two finalized arcs that conflict because a veto
// was lost to the fault oracles. Loss alone produces such conflicts, so
// the loss-only plan runs on every family.
TEST(FaultInjectionTest, UnhardenedRandomizedLeavesFaultConflictsToOracles) {
  FaultSpec corrupting;
  corrupting.seed = 7;
  corrupting.drop_rate = 0.1;
  corrupting.duplicate_rate = 0.1;
  corrupting.corrupt_rate = 0.05;
  expect_verdicts_under_corruption(
      {GraphFamily::kUdg, GraphFamily::kGrid, GraphFamily::kRing},
      {SchedulerKind::kRandomized}, corrupting);
  FaultSpec lossy;
  lossy.seed = 3;
  lossy.drop_rate = 0.1;
  expect_verdicts_under_corruption(
      {GraphFamily::kUdg, GraphFamily::kGnm, GraphFamily::kTree,
       GraphFamily::kGrid, GraphFamily::kRing, GraphFamily::kStar},
      {SchedulerKind::kRandomized}, lossy);
}

// Unhardened distributed repair likewise treats a corrupted tag, length,
// origin, TTL, block, arc or color as a lost message: the run returns its
// outcome for the oracles to judge (it used to die on a corrupted block
// counter or an unknown tag). So does an event-local repair, whose State
// floods carry the wake budget in their block word: a corrupted budget may
// wake a node early or late, or reach past the wake ball, where it is lost.
TEST(FaultInjectionTest, UnhardenedRepairTreatsMalformedMessagesAsLost) {
  const FaultSpec spec = parse_fault_spec("corrupt=0.05,fseed=7");
  std::size_t corrupted = 0;
  std::size_t judged = 0;
  for (const GraphFamily family : kAllFamilies) {
    for (const std::size_t n : {12u, 50u}) {
      for (std::uint64_t seed = 1; seed <= 3; ++seed) {
        Scenario scenario;
        scenario.family = family;
        scenario.n = n;
        scenario.density = 0.4;
        scenario.seed = seed;
        const Graph graph = materialize(scenario);
        const ArcView view(graph);
        DistRepairResult result;
        ASSERT_NO_THROW(result = run_distributed_repair(
                            graph, ArcColoring(view.num_arcs()), seed,
                            {.faults = &spec}))
            << fault_repro_command(scenario, "dist_repair", spec);
        EXPECT_EQ(result.coloring.num_arcs(), view.num_arcs());
        corrupted += result.faults.corrupted;
        ++judged;
        // Node 0's out-arcs lost their colors, so node 0 alone is touched.
        ArcColoring stale = greedy_coloring(view);
        view.for_each_out_arc(0, [&](ArcId a) { stale.clear(a); });
        const std::vector<NodeId> touched = {0};
        ASSERT_NO_THROW(result = run_distributed_repair(
                            graph, stale, seed, {.faults = &spec},
                            drive_sync_set, touched))
            << fault_repro_command(scenario, "dist_repair", spec)
            << " (woken from node 0)";
        EXPECT_EQ(result.coloring.num_arcs(), view.num_arcs());
        corrupted += result.faults.corrupted;
        ++judged;
      }
    }
  }
  EXPECT_EQ(judged, 72u);
  EXPECT_GT(corrupted, 0u) << "the plan never corrupted a message";
}

// Crash-recovery workflow: crash/churn plans orphan part of a clean
// schedule; dist_repair must restore feasibility while touching only the
// distance-2 neighborhood of the faulted region.
TEST(FaultInjectionTest, CrashRecoveryIsLocal) {
  const std::vector<Scenario> scenarios = sample_scenarios(18, 0xc4a5, 12);
  const ScenarioCheckFn check = [](const Scenario& scenario, std::size_t) {
    ScenarioOutcome outcome;
    const Graph graph = materialize(scenario);
    FaultSpec crash;
    crash.seed = scenario.seed + 7;
    crash.crash_fraction = 0.25;
    FaultSpec churn;
    churn.seed = scenario.seed + 7;
    churn.link_down_fraction = 0.3;
    for (const FaultSpec& spec : {crash, churn}) {
      const CrashRecoveryReport report = check_crash_recovery(
          SchedulerKind::kDistMisGbg, graph, scenario.seed, spec);
      ++outcome.checks;
      if (!report.ok)
        outcome.failures.push_back(
            report.failure + "\nrepro: " +
            fault_repro_command(scenario, "distMIS", spec));
      if (report.orphaned_arcs > 0 && report.changed_arcs == 0)
        outcome.failures.push_back(
            "orphaned arcs but repair changed nothing\nrepro: " +
            fault_repro_command(scenario, "distMIS", spec));
    }
    return outcome;
  };
  const ScenarioSweep sweep = run_scenarios(scenarios, check, &sweep_pool());
  EXPECT_EQ(sweep.checks, 2 * scenarios.size());
  EXPECT_TRUE(sweep.ok()) << sweep.failure_digest();
}

// dist_repair hardened with the wrapper also runs *under* faults.
TEST(FaultInjectionTest, HardenedRepairSurvivesLossyRun) {
  const std::vector<Scenario> scenarios = sample_scenarios(8, 0x4e9a, 10);
  FaultSpec spec;
  spec.seed = 17;
  spec.drop_rate = 0.2;
  for (const Scenario& scenario : scenarios) {
    const Graph graph = materialize(scenario);
    if (graph.num_edges() == 0) continue;
    const ScheduleResult clean =
        run_scheduler(SchedulerKind::kDistMisGbg, graph, scenario.seed);
    const ArcView view(graph);
    ArcColoring stale = clean.coloring;
    for (const NeighborEntry& entry : graph.neighbors(0))
      stale.clear(arc_along(0, entry));
    const DistRepairResult repaired = run_distributed_repair(
        graph, stale, scenario.seed, {.faults = &spec, .reliable = true});
    EXPECT_TRUE(repaired.completed);
    EXPECT_TRUE(is_feasible_schedule(view, repaired.coloring))
        << "repro: "
        << fault_repro_command(scenario, "dist_repair", spec);
  }
}

/// The canonical terminating-but-wrong fault case: unhardened dist_repair
/// under message loss finishes its fixed-length flood-and-compete schedule
/// with holes in its knowledge, producing an infeasible or incomplete
/// coloring.
bool lossy_repair_fails(const Graph& graph, const FaultSpec& spec) {
  if (graph.num_nodes() == 0 || graph.num_edges() == 0 || !spec.any())
    return false;
  const ScheduleResult clean =
      run_scheduler(SchedulerKind::kDistMisGbg, graph, 7);
  const ArcView view(graph);
  ArcColoring stale = clean.coloring;
  for (const NeighborEntry& entry : graph.neighbors(0))
    stale.clear(arc_along(0, entry));
  const DistRepairResult repaired =
      run_distributed_repair(graph, stale, 7, {.faults = &spec});
  return !repaired.completed ||
         !is_feasible_schedule(view, repaired.coloring);
}

// The acceptance-criterion shrink: a seeded failing fault plan minimizes
// to a small (graph, spec) pair and renders as a one-line replay command.
TEST(FaultInjectionTest, FailingFaultPlanShrinksToReplayableRepro) {
  // Scan a few seeded instances for a failing one so the test is robust to
  // upstream generator tweaks; the shrinker contract is what is under test.
  Graph failing;
  FaultSpec failing_spec;
  bool found = false;
  for (std::uint64_t seed = 1; seed <= 6 && !found; ++seed) {
    const std::vector<Scenario> scenarios = sample_scenarios(12, seed, 14);
    for (const Scenario& scenario : scenarios) {
      FaultSpec spec;
      spec.seed = seed * 31 + 5;
      spec.drop_rate = 0.6;
      spec.corrupt_rate = 0.3;
      spec.max_losses_per_channel = 16;
      const Graph graph = materialize(scenario);
      if (lossy_repair_fails(graph, spec)) {
        failing = graph;
        failing_spec = spec;
        found = true;
        break;
      }
    }
  }
  ASSERT_TRUE(found) << "no seeded lossy repair failure found";

  ShrinkOptions options;
  options.max_checks = 400;
  const FaultShrinkOutcome shrunk =
      shrink_fault_case(failing, failing_spec, lossy_repair_fails, options);

  // The minimized case still fails, is no larger than the seed case, and
  // the spec only got simpler.
  EXPECT_TRUE(lossy_repair_fails(shrunk.graph, shrunk.spec));
  EXPECT_LE(shrunk.graph.num_nodes(), failing.num_nodes());
  EXPECT_LE(shrunk.graph.num_edges(), failing.num_edges());
  EXPECT_LE(shrunk.spec.drop_rate, failing_spec.drop_rate);
  EXPECT_LE(shrunk.spec.corrupt_rate, failing_spec.corrupt_rate);
  EXPECT_LE(shrunk.checks, options.max_checks + 1);

  const std::string repro = fault_repro_command(
      scenario_from_graph(shrunk.graph), "dist_repair", shrunk.spec);
  EXPECT_NE(repro.find("--faults="), std::string::npos) << repro;
  EXPECT_NE(repro.find("--scheduler=dist_repair"), std::string::npos)
      << repro;
}

// Shrinking disarms the correlated classes wholesale: when a failure only
// needs i.i.d. loss, the minimized spec must have shed its bursts, PRR
// matrix, region outages, and their tuning knobs, so the replay line stays
// one short --faults= string.
TEST(FaultInjectionTest, CorrelatedSpecFieldsShrinkAway) {
  const Graph graph = generate_cycle(8);
  FaultSpec spec;
  spec.seed = 77;
  spec.drop_rate = 0.6;
  spec.burst_rate = 0.3;
  spec.burst_max_run = 16;
  spec.burst_cap = 32;
  spec.prr_levels = {0.5, 0.8};
  spec.region_count = 2;
  spec.region_duration = 6.0;
  // The failure only depends on the i.i.d. drop rate: everything else is
  // shrinkable noise.
  const FaultFailingPredicate still_fails =
      [](const Graph& candidate, const FaultSpec& candidate_spec) {
        return candidate.num_edges() > 0 && candidate_spec.drop_rate >= 0.3;
      };
  const FaultShrinkOutcome shrunk =
      shrink_fault_case(graph, spec, still_fails);
  EXPECT_TRUE(still_fails(shrunk.graph, shrunk.spec));
  EXPECT_EQ(shrunk.spec.burst_rate, 0.0);
  EXPECT_TRUE(shrunk.spec.prr_levels.empty());
  EXPECT_EQ(shrunk.spec.region_count, 0u);
  const FaultSpec defaults;
  EXPECT_EQ(shrunk.spec.burst_max_run, defaults.burst_max_run);
  EXPECT_EQ(shrunk.spec.burst_cap, defaults.burst_cap);
  EXPECT_EQ(shrunk.spec.region_duration, defaults.region_duration);
  EXPECT_LE(shrunk.spec.drop_rate, spec.drop_rate);
  const std::string repro = fault_repro_command(
      scenario_from_graph(shrunk.graph), "distMIS", shrunk.spec);
  EXPECT_NE(repro.find("--faults="), std::string::npos) << repro;
  EXPECT_EQ(repro.find("bp="), std::string::npos) << repro;
  EXPECT_EQ(repro.find("regions="), std::string::npos) << repro;
}

/// The runs FaultDecisionsArePinned hashes: two synchronous schedulers and
/// DFS on the asynchronous engine under two delay models.
enum class PinnedRun { kDistMis, kRandomized, kDfsUnit, kDfsUniform };

/// One run of `kind` on `graph` under `spec`, hardened or not.
ScheduleResult run_pinned(PinnedRun kind, const Graph& graph,
                          std::uint64_t seed, const FaultSpec& spec,
                          bool reliable) {
  switch (kind) {
    case PinnedRun::kDistMis:
      return run_scheduler(SchedulerKind::kDistMisGbg, graph, seed,
                           {.faults = &spec, .reliable = reliable});
    case PinnedRun::kRandomized:
      return run_scheduler(SchedulerKind::kRandomized, graph, seed,
                           {.faults = &spec, .reliable = reliable});
    case PinnedRun::kDfsUnit:
    case PinnedRun::kDfsUniform: {
      DfsOptions options;
      options.faults = &spec;
      options.reliable = reliable;
      options.seed = seed;
      options.delay_model = kind == PinnedRun::kDfsUnit
                                ? DelayModel::kUnit
                                : DelayModel::kUniformRandom;
      return run_dfs_schedule(graph, options);
    }
  }
  return {};
}

// The exact-output pins of DistMIS, DFS and repair run fault-free or under
// one unhardened plan; this one pins what both engines decide under fault
// plans. Per run it hashes every arc color, the message count, rounds (sync)
// or completion time (async), completion, all eight FaultStats counters,
// and for hardened runs the transport counters and the suspected set. The
// first plan arms every fault class (crashes stall DFS under it); the
// second is the DistMIS pin's unhardened plan, under which hardened DFS
// completes and unhardened DFS stalls. A change to how the engines post,
// drop, duplicate or corrupt a message must leave every hash as it is.
TEST(FaultInjectionTest, FaultDecisionsArePinned) {
  struct Pin {
    PinnedRun kind;
    bool reliable;
    std::uint64_t armed;  // hash under `armed`
    std::uint64_t noisy;  // hash under `noisy`
  };
  const FaultSpec armed = parse_fault_spec(
      "drop=0.05,dup=0.05,corrupt=0.02,bp=0.1,prr=0.9:0.8,regions=1,"
      "crash=0.1,link=0.1,fseed=11");
  const FaultSpec noisy =
      parse_fault_spec("drop=0.1,dup=0.1,corrupt=0.05,fseed=7");
  const Pin pins[] = {
      {PinnedRun::kDistMis, false, 0xebd0442aa217e599ULL,
       0x0610dd83b2c43e12ULL},
      {PinnedRun::kDistMis, true, 0xbcf12e299667acdeULL,
       0x589b048b3f5ab5e0ULL},
      {PinnedRun::kRandomized, false, 0xecbfaac32e58cf9cULL,
       0x3f97e73a65488889ULL},
      {PinnedRun::kRandomized, true, 0x2ca9cc2815af963aULL,
       0x30a39127099e68e3ULL},
      {PinnedRun::kDfsUnit, false, 0x7d500f74a8b65805ULL,
       0x5efb0f485ba630e1ULL},
      {PinnedRun::kDfsUnit, true, 0x780ffe2f794488a2ULL,
       0xfab51ba811d060c6ULL},
      {PinnedRun::kDfsUniform, false, 0x865bb53faf79af59ULL,
       0xa234a838c85c8ff0ULL},
      {PinnedRun::kDfsUniform, true, 0x9ba10543c9fa1a41ULL,
       0xfda3a6a4777debfdULL},
  };
  struct Instance {
    Graph graph;
    std::uint64_t seed;
  };
  std::vector<Instance> instances;
  for (const GraphFamily family : kAllFamilies) {
    for (const std::size_t n : {8u, 12u}) {
      for (std::uint64_t seed = 1; seed <= 3; ++seed) {
        Scenario scenario;
        scenario.family = family;
        scenario.n = n;
        scenario.density = 0.4;
        scenario.seed = seed;
        instances.push_back({materialize(scenario), seed});
      }
    }
  }
  ASSERT_EQ(instances.size(), 36u);
  FaultStats armed_total;  // what `armed` injected over every pinned run
  for (const Pin& pin : pins) {
    const bool async =
        pin.kind == PinnedRun::kDfsUnit || pin.kind == PinnedRun::kDfsUniform;
    for (const FaultSpec* spec : {&armed, &noisy}) {
      Fnv64 hash;
      std::size_t runs = 0;
      for (const Instance& instance : instances) {
        if (async && !is_connected(instance.graph)) continue;
        ++runs;
        const ScheduleResult result = run_pinned(
            pin.kind, instance.graph, instance.seed, *spec, pin.reliable);
        for (ArcId a = 0; a < result.coloring.num_arcs(); ++a)
          hash.add(static_cast<std::uint32_t>(result.coloring.color(a)));
        hash.add(result.messages);
        hash.add(async ? std::bit_cast<std::uint64_t>(result.async_time)
                       : result.rounds);
        hash.add(result.completed ? 1 : 0);
        const FaultStats& faults = result.faults;
        if (spec == &armed) armed_total += faults;
        for (const std::uint64_t count :
             {faults.dropped, faults.duplicated, faults.corrupted,
              faults.burst_dropped, faults.prr_dropped, faults.region_drops,
              faults.link_down_drops, faults.crash_drops})
          hash.add(count);
        if (!pin.reliable) continue;
        const TransportStats& transport = result.transport;
        for (const std::uint64_t count :
             {transport.retransmits, transport.probes, transport.suspicions,
              transport.retrusts, transport.abandoned})
          hash.add(count);
        hash.add(std::bit_cast<std::uint64_t>(transport.max_backoff));
        hash.add(result.suspected.size());
        for (const NodeId v : result.suspected) hash.add(v);
      }
      EXPECT_EQ(runs, async ? 30u : 36u);
      const std::uint64_t expected = spec == &armed ? pin.armed : pin.noisy;
      EXPECT_EQ(hash.value(), expected)
          << "run " << static_cast<int>(pin.kind)
          << (pin.reliable ? " hardened" : " unhardened") << " under "
          << format_fault_spec(*spec) << ": got 0x" << std::hex
          << hash.value();
    }
  }
  // The pins cover every decision path: each fault class fired.
  for (const std::uint64_t count :
       {armed_total.dropped, armed_total.duplicated, armed_total.corrupted,
        armed_total.burst_dropped, armed_total.prr_dropped,
        armed_total.region_drops, armed_total.link_down_drops,
        armed_total.crash_drops})
    EXPECT_GT(count, 0u);
}

}  // namespace
}  // namespace fdlsp
