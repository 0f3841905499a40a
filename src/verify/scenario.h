// Randomized scenario descriptors for the verification harness.
//
// A Scenario is a compact, fully reproducible recipe for a test instance:
// graph family × size × density knob × seed. Materializing the same
// scenario twice yields byte-identical graphs, so every failure the fuzzer
// finds is replayable from the one-line repro command printed with it.
// Shrunk counterexamples no longer correspond to a generator invocation, so
// a scenario can alternatively carry an explicit edge list.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "algos/scheduler.h"
#include "graph/graph.h"

namespace fdlsp {

class CliArgs;

/// Graph families the fuzzer samples from.
enum class GraphFamily {
  kUdg,   ///< random unit disk graph; density scales the radius
  kGnm,   ///< Erdős–Rényi G(n, m); density = m / n(n-1)/2
  kTree,  ///< uniform random attachment tree (density unused)
  kGrid,  ///< rows×cols grid, rows*cols ≈ n (density unused)
  kRing,  ///< cycle on n nodes (density unused) — worst case for token loss
  kStar,  ///< star K_{1,n-1} (density unused) — hub crash kills everything
};

/// All families, for sweep loops.
inline constexpr GraphFamily kAllFamilies[] = {
    GraphFamily::kUdg,  GraphFamily::kGnm,  GraphFamily::kTree,
    GraphFamily::kGrid, GraphFamily::kRing, GraphFamily::kStar};

/// Family name as used in repro commands
/// ("udg", "gnm", "tree", "grid", "ring", "star").
std::string family_name(GraphFamily family);

/// One reproducible test instance.
struct Scenario {
  GraphFamily family = GraphFamily::kGnm;
  std::size_t n = 0;       ///< requested node count
  double density = 0.5;    ///< family-specific density knob in [0, 1]
  std::uint64_t seed = 0;  ///< generator seed

  /// When non-empty, materialize() ignores the generator fields and builds
  /// this exact graph on `explicit_n` nodes (used for shrunk reproducers).
  std::vector<Edge> explicit_edges;
  std::size_t explicit_n = 0;
};

/// Builds the scenario's graph. Deterministic: equal scenarios yield equal
/// graphs (same node ids, same edge ids).
Graph materialize(const Scenario& scenario);

/// Wraps an explicit graph as a scenario (shrunk reproducers).
Scenario scenario_from_graph(const Graph& graph);

/// One-line replay command for a generated scenario, e.g.
///   --family=gnm --n=12 --density=0.40 --seed=77 --scheduler=DFS
std::string repro_command(const Scenario& scenario,
                          const std::string& algorithm);
inline std::string repro_command(const Scenario& scenario,
                                 SchedulerKind kind) {
  return repro_command(scenario, scheduler_name(kind));
}

/// Every flag examples/replay accepts when replaying a scheduler scenario:
/// those repro_command() and fault_repro_command() print, plus replay's own
/// --reliable, --prr-trace, --shards and --help. Any other flag is rejected,
/// so a misspelled or retired flag cannot silently change the replayed run.
inline constexpr std::string_view kReplayFlags[] = {
    "family", "n",        "density",   "seed",   "scheduler",
    "faults", "reliable", "prr-trace", "shards", "help"};

/// Checks a scheduler-mode replay line: every flag must be in kReplayFlags,
/// and --reliable, --prr-trace and --shards need --faults — without a
/// fault plan replay would ignore them. Raises contract_error naming the
/// offending flag.
void require_replay_flags(const CliArgs& args);

/// Compact printable form of a graph ("n=4 edges=[(0,1),(1,2),(2,3)]") for
/// embedding shrunk counterexamples in failure reports.
std::string format_graph(const Graph& graph);

/// Samples `count` scenarios cycling through all families, with node counts
/// in [4, max_n] and densities spanning sparse to dense. All randomness
/// derives from `seed`.
std::vector<Scenario> sample_scenarios(std::size_t count, std::uint64_t seed,
                                       std::size_t max_n);

}  // namespace fdlsp
