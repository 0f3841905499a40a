// Differential fuzzing driver: scenarios × schedulers × oracles × shrink.
//
// The entry points every property test (and future regression gate) uses:
//   check_scenario  — materialize one scenario, run one algorithm through
//                     the oracle battery; on failure shrink the graph to a
//                     minimal reproducer and return a FailureReport whose
//                     to_string() is a ready-to-paste bug report with a
//                     one-line repro command.
//   fuzz_scheduler  — sweep a scenario batch and collect every failure.
//   run_scenarios   — generic sharded sweep driver: fans a scenario batch
//                     across a ThreadPool and merges per-scenario outcomes
//                     in index order, so the aggregate (counts AND failure
//                     ordering) is identical to the serial sweep for any
//                     thread count. Property suites build on it instead of
//                     hand-rolling their scenario loops.
//   check_shard_determinism, check_async_equivalence — differential
//                     probes shaped for run_scenarios: sharded vs serial
//                     synchronous engine, and asynchronous vs synchronous
//                     DistMIS.
// Built-in scheduler kinds run via run_scheduler_on_components, so
// disconnected fuzzed instances are handled the same way the experiment
// harness handles them (DFS per component with slot reuse).
#pragma once

#include <functional>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "algos/dist_mis.h"
#include "algos/scheduler.h"
#include "sim/delay.h"
#include "verify/oracles.h"
#include "verify/scenario.h"
#include "verify/shrink.h"

namespace fdlsp {

class ThreadPool;

/// Tunables for a differential check.
struct DifferentialOptions {
  OracleOptions oracles;
  bool shrink_on_failure = true;
  ShrinkOptions shrink;
};

/// Everything needed to reproduce and debug one oracle failure.
struct FailureReport {
  std::string algorithm;       ///< scheduler under test
  Scenario scenario;           ///< the original failing scenario
  std::string oracle_failure;  ///< failing oracle on the original instance
  std::string repro;           ///< one-line command for the original
  Graph shrunk;                ///< minimal failing graph (== original if
                               ///< shrinking was disabled or exhausted)
  std::string shrunk_failure;  ///< failing oracle on the shrunk instance
};

/// Multi-line human-readable form of a failure (repro command, shrunk
/// witness edge list, oracle messages).
std::string to_string(const FailureReport& report);

/// Checks an arbitrary scheduling function against the battery on one
/// scenario. Returns the report on failure, nullopt when all oracles pass.
std::optional<FailureReport> check_scenario(const ScheduleFn& run,
                                            const std::string& algorithm,
                                            const Scenario& scenario,
                                            const DifferentialOptions& options);

/// Same for a built-in scheduler kind; oracle gating defaults to
/// oracle_options_for(kind).
std::optional<FailureReport> check_scenario(SchedulerKind kind,
                                            const Scenario& scenario);

/// Aggregate over a scenario batch.
struct FuzzSummary {
  std::size_t scenarios = 0;
  std::vector<FailureReport> failures;
};

/// Runs `kind` over every scenario, collecting all failures. A non-null
/// `pool` shards the batch across its workers; the summary is identical to
/// the serial sweep (failures reported lowest scenario index first).
FuzzSummary fuzz_scheduler(SchedulerKind kind,
                           std::span<const Scenario> scenarios,
                           ThreadPool* pool = nullptr);

/// Outcome of checking one scenario, as reported by a ScenarioCheckFn.
struct ScenarioOutcome {
  std::size_t checks = 0;              ///< property/oracle checks performed
  std::vector<std::string> failures;   ///< empty when the scenario passed
};

/// One scenario's property check. Receives the scenario and its index in
/// the batch; must not touch shared mutable state (it may run on any pool
/// worker) and must be deterministic in (scenario, index) — both are
/// satisfied naturally by seeding from scenario.seed.
using ScenarioCheckFn =
    std::function<ScenarioOutcome(const Scenario&, std::size_t)>;

/// Aggregate of a sharded scenario sweep.
struct ScenarioSweep {
  std::size_t scenarios = 0;           ///< scenarios checked
  std::size_t checks = 0;              ///< total checks across the batch
  std::vector<std::string> failures;   ///< ascending scenario-index order
  bool ok() const { return failures.empty(); }
  /// All failure messages joined for a one-shot assertion message.
  std::string failure_digest() const;
};

/// Sweeps `check` over the batch. With a non-null pool the scenarios fan
/// out across its workers; outcomes are merged in scenario-index order, so
/// counts and failure ordering are byte-identical to the serial sweep
/// (lowest failing index always reported first) for any thread count.
/// Exceptions thrown by `check` propagate (first one, by pool contract).
ScenarioSweep run_scenarios(std::span<const Scenario> scenarios,
                            const ScenarioCheckFn& check,
                            ThreadPool* pool = nullptr);

/// Sharded-engine determinism probe (DESIGN.md §14): materializes the
/// scenario, runs `kind` serially, then once per entry S of `shard_counts`
/// with the RunConfig {.shards = S}, which runs the synchronous engine on
/// S shards and S threads, and compares each sharded result to the serial
/// one byte-for-byte — coloring bytes, slot count, rounds, messages,
/// completion. `kind` must run on the synchronous engine (DFS rejects a
/// shard count). One check per shard count; each divergence
/// becomes one failure string carrying the repro command. Shaped as a
/// ScenarioCheckFn body so property suites sweep it with run_scenarios.
ScenarioOutcome check_shard_determinism(
    SchedulerKind kind, const Scenario& scenario,
    std::span<const std::size_t> shard_counts);

/// Asynchronous-engine equivalence probe (DESIGN.md §16): materializes the
/// scenario, runs fault-free synchronous DistMIS (run_dist_mis) as the
/// reference, then asynchronous DistMIS behind the α-synchronizer
/// (run_dist_mis_async) once per entry of `delay_models`, executing as
/// `async_run` says — plain, behind the reliable wrapper, or under a fault
/// plan behind it. Both sides use `variant` and the scenario seed, which
/// also seeds the delays. Each async result must equal the reference
/// byte-for-byte — coloring bytes, slot count, rounds, messages,
/// completion — the synchronizer's promise that makes the synchronous
/// corpus an oracle for the asynchronous engine. One check per delay
/// model; each divergence becomes one failure string carrying the repro
/// command. A non-null `injected` accumulates the async runs' fault
/// counters, so a faulted sweep can show that its plan fired. Shaped as a
/// ScenarioCheckFn body so property suites sweep it with run_scenarios.
ScenarioOutcome check_async_equivalence(
    DistMisVariant variant, const Scenario& scenario,
    std::span<const DelayModel> delay_models, const RunConfig& async_run,
    FaultStats* injected = nullptr);

}  // namespace fdlsp
