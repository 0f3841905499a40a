#include "verify/differential.h"

#include <utility>

#include "exp/workloads.h"
#include "support/parallel_for.h"
#include "support/thread_pool.h"

namespace fdlsp {
namespace {

/// Byte-identity of two runs on the same instance: schedule and the
/// synchronous-projection metrics.
bool same_run(const ScheduleResult& a, const ScheduleResult& b) {
  return a.coloring.raw() == b.coloring.raw() && a.num_slots == b.num_slots &&
         a.rounds == b.rounds && a.messages == b.messages &&
         a.completed == b.completed;
}

}  // namespace

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
    if (!same_run(serial, sharded)) {
      outcome.failures.push_back(
          "sharded run diverged from serial at shards=" +
          std::to_string(shards) + ": " + repro_command(scenario, kind));
    }
  }
  return outcome;
}

ScenarioOutcome check_async_equivalence(
    DistMisVariant variant, const Scenario& scenario,
    std::span<const DelayModel> delay_models, const RunConfig& async_run,
    FaultStats* injected) {
  ScenarioOutcome outcome;
  const Graph graph = materialize(scenario);
  DistMisOptions sync_options;
  sync_options.variant = variant;
  sync_options.seed = scenario.seed;
  const ScheduleResult sync = run_dist_mis(graph, sync_options);
  const SchedulerKind kind = variant == DistMisVariant::kGbg
                                 ? SchedulerKind::kDistMisGbg
                                 : SchedulerKind::kDistMisGeneral;
  std::string setting = async_run.reliable ? ", reliable wrapper" : "";
  if (async_run.faults != nullptr)
    setting += ", faults=" + format_fault_spec(*async_run.faults);
  for (const DelayModel model : delay_models) {
    ++outcome.checks;
    AsyncDistMisOptions options;
    static_cast<RunConfig&>(options) = async_run;
    options.variant = variant;
    options.seed = scenario.seed;
    options.delay_model = model;
    options.delay_seed = scenario.seed;
    const ScheduleResult async = run_dist_mis_async(graph, options);
    if (injected != nullptr) *injected += async.faults;
    if (!same_run(sync, async)) {
      outcome.failures.push_back(
          "async DistMIS diverged from sync (" +
          std::string(delay_model_name(model)) + " delays" + setting +
          "): " + repro_command(scenario, kind));
    }
  }
  return outcome;
}

}  // namespace fdlsp
