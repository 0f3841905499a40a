// Tests for the D-MGC baseline.
#include <gtest/gtest.h>

#include <cstdint>

#include "algos/dmgc.h"
#include "coloring/bounds.h"
#include "coloring/checker.h"
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
  }
}

TEST(Dmgc, SingleEdge) {
  const Graph graph = generate_path(2);
  const auto result = run_dmgc(graph);
  expect_valid_schedule(graph, result);
  EXPECT_EQ(result.num_slots, 2u);
}

TEST(Dmgc, EdgelessGraph) {
  const auto result = run_dmgc(Graph(3));
  EXPECT_EQ(result.num_slots, 0u);
}

TEST(Dmgc, FixedTopologies) {
  for (const Graph& graph :
       {generate_path(7), generate_cycle(8), generate_cycle(9),
        generate_star(9), generate_grid(4, 4), generate_complete(5),
        generate_complete_bipartite(3, 4)}) {
    const auto result = run_dmgc(graph);
    expect_valid_schedule(graph, result);
  }
}

TEST(Dmgc, PhaseStatsReported) {
  DmgcStats stats;
  const Graph graph = generate_complete(6);
  const auto result = run_dmgc(graph, &stats);
  expect_valid_schedule(graph, result);
  EXPECT_GE(stats.edge_colors, graph.max_degree());
  EXPECT_LE(stats.edge_colors, graph.max_degree() + 1);
  EXPECT_GT(stats.estimated_rounds, 0u);
  EXPECT_EQ(result.rounds, stats.estimated_rounds);
}

TEST(Dmgc, SlotCountAtLeastDoubleEdgeColors) {
  // The doubling construction cannot use fewer than 2 * (Δ+1)-ish slots.
  Rng rng(301);
  for (int trial = 0; trial < 5; ++trial) {
    const Graph graph = generate_gnm(25, 60, rng);
    DmgcStats stats;
    const auto result = run_dmgc(graph, &stats);
    expect_valid_schedule(graph, result);
    if (graph.num_edges() > 0) {
      EXPECT_GE(result.num_slots, 2 * graph.max_degree());
    }
  }
}

TEST(Dmgc, RandomGraphSweep) {
  Rng rng(303);
  for (int trial = 0; trial < 12; ++trial) {
    const std::size_t n = 6 + rng.next_index(35);
    const std::size_t m = rng.next_index(3 * n);
    const std::size_t max_m = n * (n - 1) / 2;
    const Graph graph = generate_gnm(n, std::min(m, max_m), rng);
    const auto result = run_dmgc(graph);
    expect_valid_schedule(graph, result);
  }
}

TEST(Dmgc, UdgSweep) {
  Rng rng(307);
  for (int trial = 0; trial < 4; ++trial) {
    const auto geo = generate_udg(70, 5.0, 0.6, rng);
    const auto result = run_dmgc(geo.graph);
    expect_valid_schedule(geo.graph, result);
  }
}

TEST(Dmgc, DeterministicOutput) {
  Rng rng(311);
  const Graph graph = generate_gnm(20, 45, rng);
  const auto a = run_dmgc(graph);
  const auto b = run_dmgc(graph);
  EXPECT_EQ(a.coloring.raw(), b.coloring.raw());
}

TEST(Dmgc, ExactOutputsArePinned) {
  // The other cases check feasibility only. This one pins D-MGC's exact
  // output (every arc's color, the slot count and the phase statistics)
  // over the six scenario families at n = 8, 12 and 50, seeds 1-3, and over
  // dense G(200, m) instances, where color classes shed edges. A change to
  // how the baseline orients or recolors must leave both hashes as they are.
  const auto fold = [](Fnv64& hash, const Graph& graph) {
    DmgcStats stats;
    const ScheduleResult result = run_dmgc(graph, &stats);
    for (ArcId a = 0; a < result.coloring.num_arcs(); ++a)
      hash.add(static_cast<std::uint32_t>(result.coloring.color(a)));
    hash.add(result.num_slots);
    hash.add(stats.edge_colors);
    hash.add(stats.injected_edges);
    hash.add(stats.estimated_rounds);
    return stats.injected_edges;
  };

  Fnv64 families;
  std::size_t instances = 0;
  for (const GraphFamily family : kAllFamilies) {
    for (const std::size_t n : {8u, 12u, 50u}) {
      for (std::uint64_t seed = 1; seed <= 3; ++seed) {
        Scenario scenario;
        scenario.family = family;
        scenario.n = n;
        scenario.density = 0.4;
        scenario.seed = seed;
        fold(families, materialize(scenario));
        ++instances;
      }
    }
  }
  EXPECT_EQ(instances, 54u);
  EXPECT_EQ(families.value(), 0xdaa9f4e784f1c93cULL)
      << "families: got 0x" << std::hex << families.value();

  Fnv64 dense;
  std::size_t injected = 0;
  for (const std::size_t m : {400u, 800u, 1600u, 3200u}) {
    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
      Rng rng(seed);
      injected += fold(dense, generate_gnm(200, m, rng));
    }
  }
  EXPECT_EQ(injected, 14663u);
  EXPECT_EQ(dense.value(), 0x5f3d6ed1bc56266eULL)
      << "dense G(200, m): got 0x" << std::hex << dense.value();
}

}  // namespace
}  // namespace fdlsp
