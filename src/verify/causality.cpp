#include "verify/causality.h"

#include <algorithm>
#include <functional>
#include <vector>

#include "analysis/happens_before.h"
#include "graph/algorithms.h"
#include "graph/types.h"

namespace fdlsp {

namespace {

/// Invokes `probe(graph, seed)` once per engine run the scheduler needs:
/// once for synchronous algorithms, once per nontrivial connected component
/// for DFS (which requires a connected traversal; mirrors
/// run_scheduler_on_components). Stops early when `probe` returns false.
void for_each_engine_run(
    SchedulerKind kind, const Graph& graph, std::uint64_t seed,
    const std::function<bool(const Graph&, std::uint64_t)>& probe) {
  if (kind != SchedulerKind::kDfs) {
    probe(graph, seed);
    return;
  }
  const auto labels = connected_components(graph);
  const std::size_t components =
      labels.empty() ? 0
                     : *std::max_element(labels.begin(), labels.end()) + 1;
  if (components <= 1) {
    probe(graph, seed);
    return;
  }
  for (std::size_t comp = 0; comp < components; ++comp) {
    std::vector<NodeId> nodes;
    for (NodeId v = 0; v < graph.num_nodes(); ++v)
      if (labels[v] == comp) nodes.push_back(v);
    if (nodes.size() <= 1) continue;
    const InducedSubgraph sub = induced_subgraph(graph, nodes);
    if (!probe(sub.graph, seed + comp)) return;
  }
}

bool is_centralized(SchedulerKind kind) {
  return kind == SchedulerKind::kDmgc || kind == SchedulerKind::kGreedy;
}

}  // namespace

OracleVerdict check_causality(SchedulerKind kind, const Graph& graph,
                              std::uint64_t seed) {
  OracleVerdict verdict;
  if (is_centralized(kind)) return verdict;
  for_each_engine_run(
      kind, graph, seed,
      [&verdict, kind](const Graph& g, std::uint64_t s) {
        HappensBeforeChecker checker(g.num_nodes());
        run_scheduler(kind, g, s, {.trace = &checker});
        if (!checker.ok()) {
          verdict.ok = false;
          verdict.failure = "causality: " + checker.report();
          return false;
        }
        return true;
      });
  return verdict;
}

std::string causality_report(SchedulerKind kind, const Graph& graph,
                             std::uint64_t seed) {
  if (is_centralized(kind))
    return "happens-before: not applicable (centralized algorithm)";
  std::string out;
  std::size_t runs = 0;
  for_each_engine_run(kind, graph, seed,
                      [&out, &runs, kind](const Graph& g, std::uint64_t s) {
                        HappensBeforeChecker checker(g.num_nodes());
                        run_scheduler(kind, g, s, {.trace = &checker});
                        if (!out.empty()) out += "\n";
                        out += checker.report();
                        ++runs;
                        return true;
                      });
  if (runs == 0) out = "happens-before: ok (no engine run needed)";
  return out;
}

CausalityProbe causality_probe_for(SchedulerKind kind) {
  if (is_centralized(kind)) return {};  // no engine, no events
  return [kind](const Graph& graph, std::uint64_t seed) {
    return check_causality(kind, graph, seed);
  };
}

}  // namespace fdlsp
