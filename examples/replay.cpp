// Replays one fuzzer scenario from the repro command the verification
// harness prints with every failure, e.g.
//
//   ./replay --family=gnm --n=12 --density=0.40 --seed=77 --scheduler=DFS
//
// The flags are exactly the repro_command() format (verify/scenario.h), so a
// failure line can be pasted verbatim after the binary name. The tool
// materializes the scenario, runs the scheduler, reruns the full oracle
// battery (shrinking any failure to a minimal witness), and prints the
// happens-before verdict from a traced rerun under the vector-clock checker.
//
// Fault repros add the fault grammar fault_repro_command() prints
// (verify/fault_oracles.h):
//
//   ./replay --family=ring --n=8 --seed=3 --scheduler=DFS
//       --faults=drop=0.10,crash=0.25 [--reliable=0]
//
// With --faults= the tool runs the faulted scheduler (hardened with the
// ack/retransmit wrapper unless --reliable=0), prints the injected fault
// counters, and judges the run with the fault-quiescence oracle — plus the
// crash-recovery oracle when the plan arms crashes or link churn.
//
// Soak repros replay a whole churn stream under the long-horizon oracles
// (verify/soak_oracles.h):
//
//   ./replay --soak=seed=7,n=200,events=5000 [--soak-band=1.2]
//       [--distributed=1] [--faults=drop=0.1,...] [--reliable=0]
//
// The spec string is exactly what soak_repro_command() prints; on a failure
// the tool shrinks the stream and prints the minimized repro line.
//
// Each mode rejects flags outside its vocabulary (kReplayFlags,
// kSoakReplayFlags), flags the run would ignore (--reliable or --prr-trace
// without --faults, --shards without an engine that shards — DFS runs on
// the asynchronous engine, which has one event wheel), and numeric values
// that do not parse whole, so a mistyped line fails instead of replaying a
// different run.
//
// --shards=N replays a fault repro of a synchronous scheduler or a
// distributed soak on the sharded engine path: N goes into the run's
// RunConfig (sim/run_config.h), and the synchronous engine runs N shards on
// N threads it starts and joins for each run. Sharding is byte-identical to
// serial for every count, so a repro line replays the same verdict with the
// flag added or removed; the flag is echoed in the printed repro lines so a
// sharded replay stays a one-line paste. An armed fault plan still forces
// the engine serial (lifting that is the "sharded code under faults" item
// in ROADMAP.md), so today the flag shards only --faults=none repros and
// fault-free distributed soaks.
#include <cstdint>
#include <iostream>
#include <string>

#include "algos/scheduler.h"
#include "exp/workloads.h"
#include "graph/graph.h"
#include "sim/fault.h"
#include "sim/run_config.h"
#include "support/check.h"
#include "support/cli.h"
#include "verify/causality.h"
#include "verify/differential.h"
#include "verify/fault_oracles.h"
#include "verify/oracles.h"
#include "verify/scenario.h"
#include "verify/soak_oracles.h"

namespace {

fdlsp::GraphFamily parse_family(const std::string& name) {
  using fdlsp::GraphFamily;
  for (const GraphFamily family : fdlsp::kAllFamilies)
    if (name == fdlsp::family_name(family)) return family;
  FDLSP_REQUIRE(false, "unknown --family: " + name);
  return GraphFamily::kGnm;
}

/// Replays a soak stream under the full oracle battery, shrinking any
/// failure back down to a printable repro line.
int run_soak_replay(const fdlsp::CliArgs& args) {
  using namespace fdlsp;
  require_soak_replay_flags(args);
  const SoakSpec spec = parse_soak_spec(args.get("soak", "default"));

  SoakOptions driver_options;
  FaultSpec faults;
  const bool reliable = args.get_int("reliable", 1) != 0;
  if (args.has("faults")) {
    faults = parse_fault_spec(args.get("faults", "none"));
    driver_options.faults = &faults;
    driver_options.reliable = reliable;
    driver_options.distributed = true;  // fault plans act on the radio
  }
  if (args.get_int("distributed", 0) != 0) driver_options.distributed = true;
  // Replays the stream's distributed repairs on the sharded engine path
  // (byte-identical to serial for any count, so the verdict is unchanged).
  driver_options.shards = args.get_count("shards", 0);

  SoakOracleOptions oracle_options;
  oracle_options.drift_band = args.get_double("soak-band", 0.0);

  const std::string shards_flag =
      driver_options.shards > 0
          ? " --shards=" + std::to_string(driver_options.shards)
          : "";
  std::cout << "soak: " << soak_repro_command(spec, &oracle_options)
            << shards_flag
            << (driver_options.distributed ? " (distributed engine)" : "")
            << "\n";
  if (driver_options.faults != nullptr)
    std::cout << "faults: " << format_fault_spec(faults)
              << (reliable ? " (reliable wrapper on)"
                           : " (reliable wrapper OFF)")
              << "\n";

  const SoakVerdict verdict =
      run_soak_with_oracles(spec, driver_options, oracle_options);
  const SoakStats& stats = verdict.stats;
  std::cout << "events: " << stats.events << " (" << stats.repairs
            << " repairs, " << stats.recomputes << " recomputes, "
            << stats.fallbacks << " fallbacks, " << stats.noop_events
            << " no-ops)\n"
            << "recolored: " << stats.total_recolored << " arcs total, max "
            << stats.max_recolored << " in one event\n"
            << "slots: peak " << stats.max_slots << "\n"
            << "latency: p50 " << soak_percentile(stats.event_micros, 50.0)
            << " us, p99 " << soak_percentile(stats.event_micros, 99.0)
            << " us\n";

  if (verdict.ok) {
    std::cout << "soak oracles: ok (feasibility, locality, drift)\n";
    return 0;
  }
  std::cout << "soak oracles: FAIL at event " << verdict.failing_event
            << " — " << verdict.failure << "\n";

  const SoakFailingPredicate still_fails = [&](const SoakSpec& candidate) {
    return !run_soak_with_oracles(candidate, driver_options, oracle_options)
                .ok;
  };
  const SoakShrinkOutcome shrunk = shrink_soak_case(spec, still_fails);
  std::cout << "shrunk in " << shrunk.checks << " checks\n"
            << "repro: "
            << (driver_options.faults != nullptr
                    ? soak_repro_command(shrunk.spec, faults, reliable,
                                         &oracle_options)
                    : soak_repro_command(shrunk.spec, &oracle_options))
            << shards_flag << "\n";
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace fdlsp;
  try {
    const CliArgs args(argc, argv);
    if (args.has("soak") && !args.has("help")) return run_soak_replay(args);
    if (args.has("help") || !args.has("scheduler")) {
      std::cout << "usage: replay --family=udg|gnm|tree|grid|ring|star --n=N "
                   "--density=D --seed=S --scheduler=NAME\n"
                   "       [--faults=drop=0.1,bp=0.05,crash=0.25,... |"
                   " --faults=none] [--reliable=0|1]\n"
                   "       [--prr-trace=FILE] [--shards=N]\n"
                   "   or: replay --soak=SPEC [--soak-band=B]"
                   " [--distributed=1] [--faults=...] [--reliable=0]"
                   " [--shards=N]\n"
                   "Paste the repro line a failing property test prints.\n"
                   "--prr-trace loads packet-reception ratios from a "
                   "measurement file into the fault plan's PRR matrix.\n";
      return args.has("help") ? 0 : 2;
    }

    require_replay_flags(args);
    Scenario scenario;
    scenario.family = parse_family(args.get("family", "gnm"));
    scenario.n = args.get_count("n", 8);
    scenario.density = args.get_double("density", 0.5);
    scenario.seed = static_cast<std::uint64_t>(args.get_int("seed", 1));
    const SchedulerKind kind =
        parse_scheduler_name(args.get("scheduler", ""));

    const Graph graph = materialize(scenario);
    std::cout << "scenario: " << repro_command(scenario, kind) << "\n"
              << "graph: " << graph.num_nodes() << " nodes, "
              << graph.num_edges() << " edges\n";

    if (args.has("faults")) {
      FaultSpec spec = parse_fault_spec(args.get("faults", "none"));
      if (args.has("prr-trace"))
        spec.prr_levels = load_prr_levels(args.get("prr-trace", ""));
      const bool reliable = args.get_int("reliable", 1) != 0;
      // Replays on the sharded synchronous engine path — byte-identical to
      // serial for any count, so the verdict below is unchanged.
      RunConfig run{.faults = &spec,
                    .reliable = reliable,
                    .shards = args.get_count("shards", 0)};
      std::cout << "faults: " << format_fault_spec(spec)
                << (reliable ? " (reliable wrapper on, adaptive transport)"
                             : " (reliable wrapper OFF)")
                << "\n"
                << "repro: "
                << fault_repro_command(scenario, scheduler_name(kind), spec)
                << (reliable ? "" : " --reliable=0")
                << (run.shards > 0 ? " --shards=" + std::to_string(run.shards)
                                   : "")
                << "\n";

      const ScheduleResult faulted =
          run_scheduler(kind, graph, scenario.seed, run);
      std::cout << scheduler_name(kind) << ": " << faulted.num_slots
                << " slots, " << faulted.rounds << " rounds, "
                << faulted.messages << " messages, "
                << (faulted.completed ? "quiescent" : "STALLED") << "\n"
                << "injected: " << faulted.faults.dropped << " dropped, "
                << faulted.faults.duplicated << " duplicated, "
                << faulted.faults.corrupted << " corrupted, "
                << faulted.faults.burst_dropped << " burst drops, "
                << faulted.faults.prr_dropped << " PRR drops, "
                << faulted.faults.region_drops << " region drops, "
                << faulted.faults.link_down_drops << " churn drops, "
                << faulted.faults.crash_drops << " crash drops\n";
      if (reliable) {
        std::cout << "transport: " << faulted.transport.retransmits
                  << " retransmits, " << faulted.transport.probes
                  << " probes, " << faulted.transport.suspicions
                  << " suspicions, " << faulted.transport.retrusts
                  << " re-trusts, " << faulted.transport.abandoned
                  << " abandoned, max backoff "
                  << faulted.transport.max_backoff << "\n";
        if (!faulted.suspected.empty()) {
          std::cout << "suspected peers:";
          for (const NodeId v : faulted.suspected) std::cout << " " << v;
          std::cout << "\n";
        }
      }
      if (!faulted.stall_diagnosis.empty())
        std::cout << "stall diagnosis: " << faulted.stall_diagnosis << "\n";

      // The hardened run is held to the scoped fault guarantee; an
      // unwrapped run is checked strictly, so replaying a shrunk failing
      // case surfaces its violation verbatim.
      const OracleVerdict verdict =
          check_fault_result(graph, faulted, reliable ? &spec : nullptr);
      bool ok = verdict.ok;
      if (!verdict.ok)
        std::cout << "fault-quiescence: FAIL — " << verdict.failure << "\n";
      else
        std::cout << "fault-quiescence: ok\n";

      if (reliable && spec.correlated()) {
        const OracleVerdict burst =
            check_burst_quiescence(kind, graph, scenario.seed, spec);
        if (!burst.ok) {
          std::cout << "burst-quiescence: FAIL — " << burst.failure << "\n";
          ok = false;
        } else {
          std::cout << "burst-quiescence: ok\n";
        }
        const OracleVerdict detector =
            check_detector(kind, graph, scenario.seed, spec);
        if (!detector.ok) {
          std::cout << "detector: FAIL — " << detector.failure << "\n";
          ok = false;
        } else {
          std::cout << "detector: ok\n";
        }
      }

      if (spec.crash_fraction > 0.0 || spec.link_down_fraction > 0.0) {
        const CrashRecoveryReport recovery =
            check_crash_recovery(kind, graph, scenario.seed, spec);
        if (!recovery.ok) {
          std::cout << "crash-recovery: FAIL — " << recovery.failure << "\n";
          ok = false;
        } else {
          std::cout << "crash-recovery: ok (" << recovery.orphaned_arcs
                    << " arcs orphaned, " << recovery.changed_arcs
                    << " recolored in " << recovery.repair_rounds
                    << " rounds)\n";
        }
      }
      return ok ? 0 : 1;
    }

    const ScheduleResult result =
        run_scheduler_on_components(kind, graph, scenario.seed);
    std::cout << scheduler_name(kind) << ": " << result.num_slots
              << " slots, " << result.rounds << " rounds, "
              << result.messages << " messages\n";

    std::cout << causality_report(kind, graph, scenario.seed) << "\n";

    // One direct battery run surfaces the wall time each oracle spends
    // (the battery amortizes a shared ConflictIndex across all of them).
    const ScheduleFn oracle_run = [kind](const Graph& g, std::uint64_t s) {
      return run_scheduler_on_components(kind, g, s);
    };
    const OracleVerdict verdict = check_oracles(
        oracle_run, graph, scenario.seed, oracle_options_for(kind));
    std::cout << "oracle wall time:\n";
    for (const OracleTiming& timing : verdict.timings)
      std::cout << "  " << timing.oracle << ": " << timing.millis << " ms\n";

    if (const auto failure = check_scenario(kind, scenario)) {
      std::cout << "oracle battery: FAIL\n" << to_string(*failure) << "\n";
      return 1;
    }
    std::cout << "oracle battery: ok (feasibility, bounds, approximation, "
                 "determinism, causality)\n";
    return 0;
  } catch (const std::exception& error) {
    std::cerr << "replay: " << error.what() << "\n";
    return 2;
  }
}
