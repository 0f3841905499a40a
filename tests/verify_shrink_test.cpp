// Tests of the fdlsp_verify subsystem itself: scenario materialization,
// oracle battery, shrinking, and the end-to-end mutation demo required by
// ISSUE 1 — a scheduler with one distance-2 constraint deliberately skipped
// must be caught by the oracles and shrunk to a ≤ 12-node reproducer.
#include <gtest/gtest.h>

#include <iostream>

#include "coloring/checker.h"
#include "coloring/conflict.h"
#include "coloring/greedy.h"
#include "graph/algorithms.h"
#include "graph/arcs.h"
#include "graph/generators.h"
#include "support/rng.h"
#include "verify/differential.h"
#include "verify/oracles.h"
#include "verify/scenario.h"
#include "verify/shrink.h"

namespace fdlsp {
namespace {

// ---- scenario layer ----

TEST(Scenario, MaterializeRespectsFamilies) {
  for (const GraphFamily family : kAllFamilies) {
    Scenario s;
    s.family = family;
    s.n = 12;
    s.density = 0.5;
    s.seed = 7;
    const Graph graph = materialize(s);
    EXPECT_GE(graph.num_nodes(), 12u) << family_name(family);
    if (family == GraphFamily::kTree) {
      EXPECT_EQ(graph.num_edges(), 11u);
    }
  }
}

TEST(Scenario, ExplicitEdgesRoundTrip) {
  const Graph original = generate_cycle(5);
  const Scenario wrapped = scenario_from_graph(original);
  const Graph rebuilt = materialize(wrapped);
  EXPECT_EQ(rebuilt.num_nodes(), original.num_nodes());
  EXPECT_EQ(std::vector<Edge>(rebuilt.edges().begin(), rebuilt.edges().end()),
            std::vector<Edge>(original.edges().begin(),
                              original.edges().end()));
}

TEST(Scenario, ReproCommandIsOneLine) {
  Scenario s;
  s.family = GraphFamily::kGnm;
  s.n = 12;
  s.density = 0.4;
  s.seed = 77;
  const std::string repro = repro_command(s, SchedulerKind::kDfs);
  EXPECT_EQ(repro,
            "--family=gnm --n=12 --density=0.40 --seed=77 --scheduler=DFS");
  EXPECT_EQ(repro.find('\n'), std::string::npos);
}

TEST(Scenario, SampleScenariosCoversAllFamiliesDeterministically) {
  const auto a = sample_scenarios(42, 42, 16);
  const auto b = sample_scenarios(42, 42, 16);
  ASSERT_EQ(a.size(), 42u);
  std::size_t per_family[6] = {0, 0, 0, 0, 0, 0};
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(static_cast<int>(a[i].family), static_cast<int>(b[i].family));
    EXPECT_EQ(a[i].n, b[i].n);
    EXPECT_EQ(a[i].seed, b[i].seed);
    EXPECT_GE(a[i].n, 4u);
    EXPECT_LE(a[i].n, 16u);
    ++per_family[static_cast<std::size_t>(a[i].family)];
  }
  for (const std::size_t count : per_family) EXPECT_EQ(count, 7u);
}

// ---- oracle battery ----

ScheduleResult correct_greedy(const Graph& graph, std::uint64_t) {
  const ArcView view(graph);
  ScheduleResult result;
  result.coloring = greedy_coloring(view, GreedyOrder::kArcId);
  result.num_slots = result.coloring.num_colors_used();
  return result;
}

TEST(Oracles, CorrectGreedyPassesBattery) {
  for (const Scenario& scenario : sample_scenarios(40, 99, 12)) {
    const OracleVerdict verdict =
        check_oracles(correct_greedy, materialize(scenario), scenario.seed);
    EXPECT_TRUE(verdict.ok) << verdict.failure;
  }
}

TEST(Oracles, IncompleteColoringFailsFeasibility) {
  const auto incomplete = [](const Graph& graph, std::uint64_t) {
    ScheduleResult result;
    result.coloring = ArcColoring(2 * graph.num_edges());  // all uncolored
    return result;
  };
  const Graph graph = generate_path(4);
  const OracleVerdict verdict = check_oracles(incomplete, graph, 1);
  EXPECT_FALSE(verdict.ok);
  EXPECT_NE(verdict.failure.find("feasibility"), std::string::npos);
}

TEST(Oracles, NondeterministicSchedulerCaught) {
  int calls = 0;
  const ScheduleFn flaky = [&calls](const Graph& graph, std::uint64_t) {
    const ArcView view(graph);
    ScheduleResult result;
    result.coloring = greedy_coloring(view, GreedyOrder::kArcId);
    // Every second call shifts all colors by one — still feasible, but no
    // longer byte-identical, exactly the signature of hidden run-to-run
    // state.
    if (++calls % 2 == 0)
      for (ArcId a = 0; a < view.num_arcs(); ++a)
        result.coloring.set(a, result.coloring.color(a) + 1);
    result.num_slots = result.coloring.num_colors_used();
    return result;
  };
  const Graph graph = generate_star(6);
  const OracleVerdict verdict = check_oracles(flaky, graph, 5);
  EXPECT_FALSE(verdict.ok);
  EXPECT_NE(verdict.failure.find("determinism"), std::string::npos);
}

TEST(Oracles, CountViolationsQuantifiesConflicts) {
  const Graph graph = generate_path(3);  // arcs 0..3
  const ArcView view(graph);
  ArcColoring all_same(view.num_arcs());
  for (ArcId a = 0; a < view.num_arcs(); ++a) all_same.set(a, 0);
  // Every pair of the 4 arcs conflicts on a 3-path: C(4,2) = 6 pairs.
  EXPECT_EQ(count_violations(view, all_same), 6u);
  const ArcColoring good = greedy_coloring(view);
  EXPECT_EQ(count_violations(view, good), 0u);
}

// ---- shrinker ----

TEST(Shrink, FindsMinimalTriangleWitness) {
  Rng rng(31);
  Graph graph = generate_gnm(30, 120, rng);
  const auto has_triangle = [](const Graph& g) {
    for (const Edge& e : g.edges())
      if (!common_neighbors(g, e.u, e.v).empty()) return true;
    return false;
  };
  ASSERT_TRUE(has_triangle(graph));
  const ShrinkOutcome outcome = shrink_graph(graph, has_triangle);
  EXPECT_EQ(outcome.graph.num_nodes(), 3u);
  EXPECT_EQ(outcome.graph.num_edges(), 3u);
}

TEST(Shrink, RespectsBudget) {
  Rng rng(37);
  Graph graph = generate_gnm(20, 60, rng);
  std::size_t calls = 0;
  const auto always = [&calls](const Graph&) {
    ++calls;
    return true;
  };
  ShrinkOptions options;
  options.max_checks = 5;
  shrink_graph(graph, always, options);
  // +1 for the initial "must fail" precondition check.
  EXPECT_LE(calls, 6u);
}

// ---- end-to-end mutation demo (ISSUE 1 acceptance criterion) ----

// Mutant scheduler: greedy, but the conflict set used for color choice
// skips the hidden-terminal (distance-2) constraints — it only avoids
// colors of arcs sharing an endpoint. Complete and locally plausible, yet
// infeasible on any graph with a 2-hop path between transmitters.
ScheduleResult mutant_skip_distance2(const Graph& graph, std::uint64_t) {
  const ArcView view(graph);
  ScheduleResult result;
  result.coloring = ArcColoring(view.num_arcs());
  for (ArcId a = 0; a < view.num_arcs(); ++a) {
    std::vector<bool> used;
    const auto mark = [&](ArcId b) {
      if (!result.coloring.is_colored(b)) return;
      const auto c = static_cast<std::size_t>(result.coloring.color(b));
      if (c >= used.size()) used.resize(c + 1, false);
      used[c] = true;
    };
    const NodeId t = view.tail(a);
    const NodeId h = view.head(a);
    for (const NeighborEntry& entry : graph.neighbors(t)) {
      mark(arc_along(t, entry));
      mark(ArcView::reverse(arc_along(t, entry)));
    }
    for (const NeighborEntry& entry : graph.neighbors(h)) {
      mark(arc_along(h, entry));
      mark(ArcView::reverse(arc_along(h, entry)));
    }
    Color c = 0;
    while (static_cast<std::size_t>(c) < used.size() &&
           used[static_cast<std::size_t>(c)])
      ++c;
    result.coloring.set(a, c);
  }
  result.num_slots = result.coloring.num_colors_used();
  return result;
}

TEST(MutationDemo, SkippedDistance2ConstraintCaughtAndShrunk) {
  DifferentialOptions options;  // full battery, shrinking on
  bool caught = false;
  for (const Scenario& scenario : sample_scenarios(60, 0xbadc0de, 16)) {
    const auto report = check_scenario(mutant_skip_distance2,
                                       "mutant-skip-d2", scenario, options);
    if (!report) continue;  // e.g. edgeless or star-like instance
    caught = true;
    EXPECT_NE(report->oracle_failure.find("feasibility"), std::string::npos)
        << report->oracle_failure;
    EXPECT_LE(report->shrunk.num_nodes(), 12u) << to_string(*report);
    EXPECT_FALSE(report->repro.empty());
    // Print one specimen so the PR description can quote a real report.
    static bool printed = false;
    if (!printed && report->shrunk.num_nodes() <= 4) {
      printed = true;
      std::cout << "mutation-demo specimen:\n" << to_string(*report);
    }
  }
  EXPECT_TRUE(caught)
      << "the proptest oracles failed to detect a skipped distance-2 "
         "constraint across 60 scenarios";
}

}  // namespace
}  // namespace fdlsp
