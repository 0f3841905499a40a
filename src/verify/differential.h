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
// Built-in scheduler kinds run via run_scheduler_on_components, so
// disconnected fuzzed instances are handled the same way the experiment
// harness handles them (DFS per component with slot reuse).
#pragma once

#include <functional>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "algos/scheduler.h"
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
/// with the RunConfig {.pool = &pool, .shards = S} — the synchronous
/// schedulers shard their engine across `pool`, DFS shards the asynchronous
/// engine — and compares each sharded result to the serial one
/// byte-for-byte — coloring bytes, slot count, rounds, messages,
/// completion. One check per shard
/// count; each divergence becomes one failure string carrying the repro
/// command. Shaped as a ScenarioCheckFn body so property suites sweep it
/// with run_scenarios.
ScenarioOutcome check_shard_determinism(SchedulerKind kind,
                                        const Scenario& scenario,
                                        std::span<const std::size_t> shard_counts,
                                        ThreadPool& pool);

}  // namespace fdlsp
