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

#include <initializer_list>
#include <string>
#include <vector>

#include "algos/dfs_schedule.h"
#include "algos/dist_repair.h"
#include "algos/scheduler.h"
#include "coloring/checker.h"
#include "graph/algorithms.h"
#include "graph/arcs.h"
#include "graph/generators.h"
#include "graph/graph.h"
#include "sim/delay.h"
#include "sim/fault.h"
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
        dropped += result.faults.dropped;
        ++judged;
      }
    }
  }
  EXPECT_EQ(judged, 3 * families.size() * kinds.size());
  if (spec.corrupt_rate > 0.0)
    EXPECT_GT(corrupted, 0u) << "the plan never corrupted a message";
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
// arc or color as a lost message (it used to die on an unknown tag). The
// plan injects no duplicates: unhardened DFS still stops at its
// protocol-state checks when a REQ, SubRep or REP arrives twice, which is
// a separate defect.
TEST(FaultInjectionTest, UnhardenedDfsTreatsMalformedMessagesAsLost) {
  FaultSpec spec;
  spec.seed = 7;
  spec.drop_rate = 0.1;
  spec.corrupt_rate = 0.05;
  expect_verdicts_under_corruption(
      {GraphFamily::kGrid, GraphFamily::kTree, GraphFamily::kRing},
      {SchedulerKind::kDfs}, spec);
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
      stale.clear(view.arc_from(entry.edge, 0));
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
    stale.clear(view.arc_from(entry.edge, 0));
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

}  // namespace
}  // namespace fdlsp
