// Tests for the asynchronous DFS scheduling algorithm.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>

#include "algos/dfs_schedule.h"
#include "coloring/bounds.h"
#include "coloring/checker.h"
#include "graph/algorithms.h"
#include "graph/arcs.h"
#include "graph/generators.h"
#include "support/rng.h"
#include "verify/scenario.h"

#include "fnv64.h"

namespace fdlsp {
namespace {

void expect_valid_schedule(const Graph& graph, const ScheduleResult& result) {
  const ArcView view(graph);
  EXPECT_TRUE(is_feasible_schedule(view, result.coloring));
  EXPECT_EQ(result.num_slots, result.coloring.num_colors_used());
  if (graph.num_edges() > 0) {
    EXPECT_GE(result.num_slots, lower_bound_trivial(graph));
    EXPECT_LE(result.num_slots, upper_bound_colors(graph));
  }
}

TEST(DfsSchedule, SingleEdge) {
  const Graph graph = generate_path(2);
  const auto result = run_dfs_schedule(graph);
  expect_valid_schedule(graph, result);
  EXPECT_EQ(result.num_slots, 2u);
}

TEST(DfsSchedule, TreesUseTwoDelta) {
  // Section 8: "Both the ILP and the DFS algorithm assign 2Δ colors for
  // input tree graphs."
  Rng rng(201);
  for (int trial = 0; trial < 8; ++trial) {
    const Graph tree = generate_random_tree(2 + rng.next_index(40), rng);
    const auto result = run_dfs_schedule(tree);
    expect_valid_schedule(tree, result);
    EXPECT_EQ(result.num_slots, 2 * tree.max_degree());
  }
}

TEST(DfsSchedule, CompleteGraphsMatchIlp) {
  // Table 1: DFS matches the ILP on K4 (12) and K5 (20).
  EXPECT_EQ(run_dfs_schedule(generate_complete(4)).num_slots, 12u);
  EXPECT_EQ(run_dfs_schedule(generate_complete(5)).num_slots, 20u);
}

TEST(DfsSchedule, CompleteBipartiteMatchesTable1Pattern) {
  // Table 1's DFS column: suboptimal on complete bipartite graphs
  // (paper: K_{3,3} -> 10 vs optimum 9; K_{4,4} -> 18 vs true optimum 16,
  // where our deterministic traversal happens to reach 16).
  EXPECT_EQ(run_dfs_schedule(generate_complete_bipartite(2, 2)).num_slots,
            4u);
  EXPECT_EQ(run_dfs_schedule(generate_complete_bipartite(3, 3)).num_slots,
            10u);
  EXPECT_EQ(run_dfs_schedule(generate_complete_bipartite(4, 4)).num_slots,
            16u);
}

TEST(DfsSchedule, CyclesAndGrids) {
  for (const Graph& graph :
       {generate_cycle(8), generate_cycle(9), generate_grid(4, 5)}) {
    const auto result = run_dfs_schedule(graph);
    expect_valid_schedule(graph, result);
  }
}

TEST(DfsSchedule, RandomConnectedGraphSweep) {
  Rng rng(203);
  int done = 0;
  while (done < 10) {
    const std::size_t n = 8 + rng.next_index(30);
    const Graph graph = generate_gnm(n, n + rng.next_index(2 * n), rng);
    if (!is_connected(graph)) continue;
    ++done;
    DfsOptions options;
    options.seed = rng();
    const auto result = run_dfs_schedule(graph, options);
    expect_valid_schedule(graph, result);
  }
}

TEST(DfsSchedule, RandomDelaysProduceSameQualityClass) {
  Rng rng(207);
  Graph graph = generate_gnm(20, 50, rng);
  while (!is_connected(graph)) graph = generate_gnm(20, 50, rng);
  DfsOptions unit;
  unit.delay_model = DelayModel::kUnit;
  DfsOptions random_delay;
  random_delay.delay_model = DelayModel::kUniformRandom;
  random_delay.seed = 31;
  const auto a = run_dfs_schedule(graph, unit);
  const auto b = run_dfs_schedule(graph, random_delay);
  expect_valid_schedule(graph, a);
  expect_valid_schedule(graph, b);
  // Same deterministic traversal, so identical slot count (the token path
  // depends on degrees and ids only).
  EXPECT_EQ(a.num_slots, b.num_slots);
}

TEST(DfsSchedule, CompletionTimeLinearInN) {
  // O(n) communication rounds: with unit delays the completion time is a
  // small constant times n.
  Rng rng(211);
  Graph graph = generate_gnm(60, 150, rng);
  while (!is_connected(graph)) graph = generate_gnm(60, 150, rng);
  const auto result = run_dfs_schedule(graph);
  EXPECT_GT(result.async_time, 0.0);
  EXPECT_LT(result.async_time, 20.0 * 60);
}

TEST(DfsSchedule, ExplicitRootHonored) {
  const Graph path = generate_path(5);
  DfsOptions options;
  options.root = 4;
  const auto result = run_dfs_schedule(path, options);
  expect_valid_schedule(path, result);
}

TEST(DfsSchedule, RejectsDisconnectedGraphs) {
  GraphBuilder builder(4);
  builder.add_edge(0, 1);
  builder.add_edge(2, 3);
  EXPECT_THROW(run_dfs_schedule(builder.build()), contract_error);
}

TEST(DfsSchedule, ExactOutputsArePinned) {
  // The other cases check feasibility and bounds only. This one pins DFS's
  // exact output (every arc's color, the message count and the async
  // completion time) per delay model and transport over the connected
  // instances of the six scenario families at n = 8, 12 and 50, seeds 1-3.
  // A change to how the protocol builds or sends its messages must leave
  // every hash as it is.
  struct Pin {
    DelayModel delay;
    bool reliable;
    std::uint64_t hash;
  };
  const Pin pins[] = {
      {DelayModel::kUnit, false, 0xc2baac77320c6267ULL},
      {DelayModel::kUniformRandom, false, 0x9fb2074df9b06423ULL},
      {DelayModel::kAdversarial, false, 0x86161cdf7fbc2d58ULL},
      {DelayModel::kUnit, true, 0xa459f5a81b012588ULL},
      {DelayModel::kUniformRandom, true, 0xcd25d7b7a8c089f9ULL},
      {DelayModel::kAdversarial, true, 0x5b1a49d83dbf04afULL},
  };
  for (const Pin& pin : pins) {
    Fnv64 hash;
    std::size_t instances = 0;
    for (const GraphFamily family : kAllFamilies) {
      for (const std::size_t n : {8u, 12u, 50u}) {
        for (std::uint64_t seed = 1; seed <= 3; ++seed) {
          Scenario scenario;
          scenario.family = family;
          scenario.n = n;
          scenario.density = 0.4;
          scenario.seed = seed;
          const Graph graph = materialize(scenario);
          if (!is_connected(graph)) continue;
          ++instances;
          DfsOptions options;
          options.delay_model = pin.delay;
          options.seed = seed;
          options.reliable = pin.reliable;
          const ScheduleResult result = run_dfs_schedule(graph, options);
          for (ArcId a = 0; a < result.coloring.num_arcs(); ++a)
            hash.add(static_cast<std::uint32_t>(result.coloring.color(a)));
          hash.add(result.messages);
          hash.add(std::bit_cast<std::uint64_t>(result.async_time));
        }
      }
    }
    EXPECT_EQ(instances, 47u);
    EXPECT_EQ(hash.value(), pin.hash)
        << delay_model_name(pin.delay) << (pin.reliable ? " reliable" : "")
        << ": got 0x" << std::hex << hash.value();
  }
}

TEST(DfsSchedule, SingleNodeGraph) {
  const Graph graph(1);
  const auto result = run_dfs_schedule(graph);
  EXPECT_EQ(result.num_slots, 0u);
}

}  // namespace
}  // namespace fdlsp
