#include "verify/differential.h"

#include <utility>

#include "exp/workloads.h"
#include "support/parallel_for.h"
#include "support/thread_pool.h"

namespace fdlsp {

std::string to_string(const FailureReport& report) {
  std::string out;
  out += "[" + report.algorithm + "] oracle failure: " +
         report.oracle_failure + "\n";
  out += "repro: " + report.repro + "\n";
  out += "shrunk witness (" + report.shrunk_failure + "): " +
         format_graph(report.shrunk) + "\n";
  return out;
}

std::optional<FailureReport> check_scenario(
    const ScheduleFn& run, const std::string& algorithm,
    const Scenario& scenario, const DifferentialOptions& options) {
  const Graph graph = materialize(scenario);
  const OracleVerdict verdict =
      check_oracles(run, graph, scenario.seed, options.oracles);
  if (verdict.ok) return std::nullopt;

  FailureReport report;
  report.algorithm = algorithm;
  report.scenario = scenario;
  report.oracle_failure = verdict.failure;
  report.repro = repro_command(scenario, algorithm);
  report.shrunk = graph;
  report.shrunk_failure = verdict.failure;

  if (options.shrink_on_failure) {
    const auto still_fails = [&](const Graph& candidate) {
      return !check_oracles(run, candidate, scenario.seed, options.oracles)
                  .ok;
    };
    ShrinkOutcome outcome =
        shrink_graph(graph, still_fails, options.shrink);
    report.shrunk = std::move(outcome.graph);
    report.shrunk_failure =
        check_oracles(run, report.shrunk, scenario.seed, options.oracles)
            .failure;
  }
  return report;
}

std::optional<FailureReport> check_scenario(SchedulerKind kind,
                                            const Scenario& scenario) {
  DifferentialOptions options;
  options.oracles = oracle_options_for(kind);
  const ScheduleFn run = [kind](const Graph& graph, std::uint64_t seed) {
    return run_scheduler_on_components(kind, graph, seed);
  };
  return check_scenario(run, scheduler_name(kind), scenario, options);
}

FuzzSummary fuzz_scheduler(SchedulerKind kind,
                           std::span<const Scenario> scenarios,
                           ThreadPool* pool) {
  FuzzSummary summary;
  summary.scenarios = scenarios.size();
  if (pool == nullptr || pool->size() <= 1 || scenarios.size() <= 1) {
    for (const Scenario& scenario : scenarios)
      if (auto report = check_scenario(kind, scenario))
        summary.failures.push_back(std::move(*report));
    return summary;
  }
  // Per-index slots: each worker writes only its own scenario's slot, and
  // the merge walks slots in index order, so the failure list is identical
  // to the serial sweep for any thread count.
  std::vector<std::optional<FailureReport>> slots(scenarios.size());
  parallel_for(*pool, scenarios.size(), [&](std::size_t i) {
    slots[i] = check_scenario(kind, scenarios[i]);
  });
  for (auto& slot : slots)
    if (slot.has_value()) summary.failures.push_back(std::move(*slot));
  return summary;
}

std::string ScenarioSweep::failure_digest() const {
  std::string out;
  for (const std::string& failure : failures) {
    if (!out.empty()) out += "\n";
    out += failure;
  }
  return out;
}

ScenarioSweep run_scenarios(std::span<const Scenario> scenarios,
                            const ScenarioCheckFn& check,
                            ThreadPool* pool) {
  ScenarioSweep sweep;
  sweep.scenarios = scenarios.size();
  std::vector<ScenarioOutcome> slots(scenarios.size());
  if (pool == nullptr || pool->size() <= 1 || scenarios.size() <= 1) {
    for (std::size_t i = 0; i < scenarios.size(); ++i)
      slots[i] = check(scenarios[i], i);
  } else {
    parallel_for(*pool, scenarios.size(), [&](std::size_t i) {
      slots[i] = check(scenarios[i], i);
    });
  }
  // Merge in index order: counts and failure ordering match the serial
  // sweep exactly (lowest failing index first).
  for (ScenarioOutcome& outcome : slots) {
    sweep.checks += outcome.checks;
    for (std::string& failure : outcome.failures)
      sweep.failures.push_back(std::move(failure));
  }
  return sweep;
}

ScenarioOutcome check_shard_determinism(
    SchedulerKind kind, const Scenario& scenario,
    std::span<const std::size_t> shard_counts, ThreadPool& pool) {
  ScenarioOutcome outcome;
  const Graph graph = materialize(scenario);
  const ScheduleResult serial = run_scheduler(kind, graph, scenario.seed);
  for (const std::size_t shards : shard_counts) {
    ++outcome.checks;
    const ScheduleResult sharded = run_scheduler(
        kind, graph, scenario.seed, {.pool = &pool, .shards = shards});
    const bool identical = serial.coloring.raw() == sharded.coloring.raw() &&
                           serial.num_slots == sharded.num_slots &&
                           serial.rounds == sharded.rounds &&
                           serial.messages == sharded.messages &&
                           serial.completed == sharded.completed;
    if (!identical) {
      outcome.failures.push_back(
          "sharded run diverged from serial at shards=" +
          std::to_string(shards) + ": " + repro_command(scenario, kind));
    }
  }
  return outcome;
}

}  // namespace fdlsp
