// Differential property tests for ConflictIndex: every CSR row must match
// the brute-force Definition-2 predicate on every graph family, the parallel
// build must be byte-identical to the sequential one for any thread count,
// and every index-backed kernel (greedy, checker, repair, smallest feasible
// color) must agree exactly with its enumeration-based fallback.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "coloring/bounds.h"
#include "coloring/checker.h"
#include "coloring/conflict.h"
#include "coloring/conflict_graph.h"
#include "coloring/conflict_index.h"
#include "coloring/greedy.h"
#include "algos/repair.h"
#include "graph/arcs.h"
#include "graph/generators.h"
#include "support/rng.h"
#include "support/thread_pool.h"

namespace fdlsp {
namespace {

/// The graph families of the paper's experiments plus the adversarial
/// extremes (Kn: everything conflicts; trees/paths: sparse conflicts).
std::vector<std::pair<std::string, Graph>> family_instances() {
  std::vector<std::pair<std::string, Graph>> instances;
  Rng rng(2026);
  instances.emplace_back("udg40", generate_udg(40, 4.0, 1.0, rng).graph);
  instances.emplace_back("gnm30", generate_gnm(30, 60, rng));
  instances.emplace_back("tree30", generate_random_tree(30, rng));
  instances.emplace_back("grid5x6", generate_grid(5, 6));
  instances.emplace_back("k6", generate_complete(6));
  instances.emplace_back("k4_5", generate_complete_bipartite(4, 5));
  instances.emplace_back("path2", generate_path(2));
  instances.emplace_back("isolated", Graph(5));
  return instances;
}

TEST(ConflictIndex, RowsMatchBruteForcePredicate) {
  for (const auto& [name, graph] : family_instances()) {
    const ArcView view(graph);
    const ConflictIndex index(view);
    ASSERT_EQ(index.num_arcs(), view.num_arcs()) << name;
    std::size_t total = 0;
    for (ArcId a = 0; a < view.num_arcs(); ++a) {
      std::vector<ArcId> reference;
      for (ArcId b = 0; b < view.num_arcs(); ++b)
        if (b != a && arcs_conflict(view, a, b)) reference.push_back(b);
      const auto row = index.conflicts(a);
      EXPECT_EQ(std::vector<ArcId>(row.begin(), row.end()), reference)
          << name << " arc " << a;
      EXPECT_TRUE(std::is_sorted(row.begin(), row.end()))
          << name << " arc " << a;
      total += row.size();
    }
    EXPECT_EQ(index.total_conflicts(), total) << name;
  }
}

TEST(ConflictIndex, ParallelBuildIsByteIdenticalForAnyThreadCount) {
  for (const auto& [name, graph] : family_instances()) {
    const ArcView view(graph);
    const ConflictIndex sequential(view);
    for (const std::size_t threads : {1u, 2u, 8u}) {
      ThreadPool pool(threads);
      const ConflictIndex parallel(view, pool);
      EXPECT_EQ(parallel.raw_offsets(), sequential.raw_offsets())
          << name << " threads=" << threads;
      EXPECT_EQ(parallel.raw_neighbors(), sequential.raw_neighbors())
          << name << " threads=" << threads;
    }
  }
}

TEST(ConflictIndex, PairPredicateMatchesArcsConflict) {
  for (const auto& [name, graph] : family_instances()) {
    const ArcView view(graph);
    const ConflictIndex index(view);
    for (ArcId a = 0; a < view.num_arcs(); ++a) {
      const auto row = index.conflicts(a);
      for (ArcId b = 0; b < view.num_arcs(); ++b) {
        if (a == b) continue;
        EXPECT_EQ(std::binary_search(row.begin(), row.end(), b),
                  arcs_conflict(view, a, b))
            << name << " arcs " << a << "," << b;
      }
    }
  }
}

TEST(ConflictIndex, RowSizesRespectLemma6Bound) {
  for (const auto& [name, graph] : family_instances()) {
    const ArcView view(graph);
    const ConflictIndex index(view);
    const std::size_t delta = graph.max_degree();
    for (ArcId a = 0; a < view.num_arcs(); ++a)
      EXPECT_LT(index.conflict_degree(a),
                std::min(2 * delta * delta + 1, view.num_arcs()))
          << name << " arc " << a;
    if (view.num_arcs() > 0) {
      EXPECT_LE(upper_bound_conflict_degree(index), upper_bound_colors(graph))
          << name;
    }
  }
}

TEST(ConflictIndex, GreedyColoringIdenticalWithAndWithoutIndex) {
  for (const auto& [name, graph] : family_instances()) {
    const ArcView view(graph);
    const ConflictIndex index(view);
    for (const GreedyOrder order :
         {GreedyOrder::kArcId, GreedyOrder::kByDegreeDesc}) {
      const ArcColoring plain = greedy_coloring(view, order);
      const ArcColoring indexed = greedy_coloring(view, order, nullptr, &index);
      EXPECT_EQ(indexed.raw(), plain.raw()) << name;
    }
    Rng r1(7), r2(7);
    const ArcColoring plain = greedy_coloring(view, GreedyOrder::kRandom, &r1);
    const ArcColoring indexed =
        greedy_coloring(view, GreedyOrder::kRandom, &r2, &index);
    EXPECT_EQ(indexed.raw(), plain.raw()) << name;
  }
}

TEST(ConflictIndex, SmallestFeasibleColorKernelMatchesFallback) {
  for (const auto& [name, graph] : family_instances()) {
    const ArcView view(graph);
    const ConflictIndex index(view);
    ConflictScratch scratch(index);
    // A partial coloring with deliberate gaps and clashes.
    Rng rng(11);
    ArcColoring partial(view.num_arcs());
    for (ArcId a = 0; a < view.num_arcs(); ++a)
      if (rng.next_bool(0.6))
        partial.set(a, static_cast<Color>(rng.next_index(4)));
    for (ArcId a = 0; a < view.num_arcs(); ++a)
      EXPECT_EQ(scratch.smallest_feasible_color(partial, a),
                smallest_feasible_color(view, partial, a))
          << name << " arc " << a;
  }
}

TEST(ConflictIndex, CheckerAgreesWithFallbackOnFeasibleAndClashing) {
  for (const auto& [name, graph] : family_instances()) {
    const ArcView view(graph);
    const ConflictIndex index(view);

    const ArcColoring feasible = greedy_coloring(view);
    EXPECT_EQ(is_feasible_schedule(view, feasible, &index),
              is_feasible_schedule(view, feasible))
        << name;
    EXPECT_EQ(count_violations(view, feasible, &index),
              count_violations(view, feasible))
        << name;

    // Random colorings: both paths must count the same violating pairs and
    // agree on whether a violation exists (the witness pair may differ).
    Rng rng(5);
    for (int trial = 0; trial < 5; ++trial) {
      ArcColoring noisy(view.num_arcs());
      for (ArcId a = 0; a < view.num_arcs(); ++a)
        noisy.set(a, static_cast<Color>(rng.next_index(3)));
      EXPECT_EQ(count_violations(view, noisy, &index),
                count_violations(view, noisy))
          << name << " trial " << trial;
      EXPECT_EQ(find_violation(view, noisy, &index).has_value(),
                find_violation(view, noisy).has_value())
          << name << " trial " << trial;
      if (const auto witness = find_violation(view, noisy, &index)) {
        EXPECT_TRUE(arcs_conflict(view, witness->a, witness->b));
        EXPECT_EQ(noisy.color(witness->a), noisy.color(witness->b));
      }
    }
  }
}

TEST(ConflictIndex, RepairIdenticalWithAndWithoutIndex) {
  for (const auto& [name, graph] : family_instances()) {
    const ArcView view(graph);
    const ConflictIndex index(view);
    Rng rng(3);
    ArcColoring partial(view.num_arcs());
    for (ArcId a = 0; a < view.num_arcs(); ++a)
      if (rng.next_bool(0.7))
        partial.set(a, static_cast<Color>(rng.next_index(5)));
    const RepairResult plain = repair_schedule(view, partial);
    const RepairResult indexed = repair_schedule(view, partial, &index);
    EXPECT_EQ(indexed.coloring.raw(), plain.coloring.raw()) << name;
    EXPECT_EQ(indexed.recolored_arcs, plain.recolored_arcs) << name;
    EXPECT_EQ(indexed.num_slots, plain.num_slots) << name;
  }
}

TEST(ConflictIndex, ConflictGraphMatchesOnTheFlyBuild) {
  for (const auto& [name, graph] : family_instances()) {
    const ArcView view(graph);
    const ConflictIndex index(view);
    const Graph baseline = build_conflict_graph(view);
    const Graph indexed = build_conflict_graph(view, index);
    ASSERT_EQ(indexed.num_nodes(), baseline.num_nodes()) << name;
    ASSERT_EQ(indexed.num_edges(), baseline.num_edges()) << name;
    EXPECT_EQ(indexed.max_degree(), baseline.max_degree()) << name;
    for (NodeId v = 0; v < baseline.num_nodes(); ++v) {
      const auto lhs = indexed.neighbors(v);
      const auto rhs = baseline.neighbors(v);
      ASSERT_EQ(lhs.size(), rhs.size()) << name << " node " << v;
      for (std::size_t i = 0; i < lhs.size(); ++i)
        EXPECT_EQ(lhs[i].to, rhs[i].to) << name << " node " << v;
    }
  }
}

}  // namespace
}  // namespace fdlsp
