// Tests for the DistMIS distributed algorithm (both variants).
#include <gtest/gtest.h>

#include "algos/dist_mis.h"
#include "coloring/bounds.h"
#include "coloring/checker.h"
#include "graph/arcs.h"
#include "graph/generators.h"
#include "support/rng.h"

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

/// Options of a DistMIS run with the given variant and seed.
DistMisOptions options_for(DistMisVariant variant, std::uint64_t seed) {
  DistMisOptions options;
  options.variant = variant;
  options.seed = seed;
  return options;
}

class DistMisVariantTest
    : public ::testing::TestWithParam<DistMisVariant> {};

TEST_P(DistMisVariantTest, SingleEdge) {
  const Graph graph = generate_path(2);
  const DistMisOptions options = options_for(GetParam(), 1);
  const auto result = run_dist_mis(graph, options);
  EXPECT_LE(result.rounds, 100'000u);
  expect_valid_schedule(graph, result);
  EXPECT_EQ(result.num_slots, 2u);
}

TEST_P(DistMisVariantTest, PathAndCycle) {
  for (const Graph& graph : {generate_path(9), generate_cycle(9)}) {
    const DistMisOptions options = options_for(GetParam(), 2);
    const auto result = run_dist_mis(graph, options);
    EXPECT_LE(result.rounds, 100'000u);
    expect_valid_schedule(graph, result);
  }
}

TEST_P(DistMisVariantTest, StarAndComplete) {
  for (const Graph& graph : {generate_star(8), generate_complete(6)}) {
    const DistMisOptions options = options_for(GetParam(), 3);
    const auto result = run_dist_mis(graph, options);
    EXPECT_LE(result.rounds, 100'000u);
    expect_valid_schedule(graph, result);
  }
}

TEST_P(DistMisVariantTest, DisconnectedGraphStillColors) {
  GraphBuilder builder(6);
  builder.add_edge(0, 1);
  builder.add_edge(1, 2);
  builder.add_edge(3, 4);  // node 5 isolated
  const Graph graph = builder.build();
  const DistMisOptions options = options_for(GetParam(), 4);
  const auto result = run_dist_mis(graph, options);
  EXPECT_LE(result.rounds, 100'000u);
  expect_valid_schedule(graph, result);
}

TEST_P(DistMisVariantTest, RandomGraphSweep) {
  Rng rng(101);
  for (int trial = 0; trial < 10; ++trial) {
    const std::size_t n = 8 + rng.next_index(30);
    const std::size_t m = rng.next_index(n * 2 + 1);
    const Graph graph = generate_gnm(n, m, rng);
    const DistMisOptions options = options_for(GetParam(), rng());
    const auto result = run_dist_mis(graph, options);
    EXPECT_LE(result.rounds, 200'000u);
    expect_valid_schedule(graph, result);
  }
}

TEST_P(DistMisVariantTest, UdgSweep) {
  Rng rng(103);
  for (int trial = 0; trial < 4; ++trial) {
    const auto geo = generate_udg(60, 5.0, 0.6, rng);
    const DistMisOptions options = options_for(GetParam(), rng());
    const auto result = run_dist_mis(geo.graph, options);
    EXPECT_LE(result.rounds, 200'000u);
    expect_valid_schedule(geo.graph, result);
  }
}

TEST_P(DistMisVariantTest, DeterministicUnderSeed) {
  Rng rng(107);
  const Graph graph = generate_gnm(20, 40, rng);
  const DistMisOptions options = options_for(GetParam(), 99);
  const auto a = run_dist_mis(graph, options);
  const auto b = run_dist_mis(graph, options);
  EXPECT_LE(a.rounds, 100'000u);
  EXPECT_EQ(a.num_slots, b.num_slots);
  EXPECT_EQ(a.rounds, b.rounds);
  EXPECT_EQ(a.messages, b.messages);
  EXPECT_EQ(a.coloring.raw(), b.coloring.raw());
}

TEST_P(DistMisVariantTest, RoundsScaleFarBelowQuadratic) {
  // Figures 13-15: rounds are far below n even on dense instances.
  Rng rng(109);
  const Graph graph = generate_gnm(120, 600, rng);
  const DistMisOptions options = options_for(GetParam(), 5);
  const auto result = run_dist_mis(graph, options);
  EXPECT_LE(result.rounds, 500'000u);
  expect_valid_schedule(graph, result);
  EXPECT_LT(result.rounds, 120u * 120u);
  EXPECT_GT(result.messages, 0u);
}

INSTANTIATE_TEST_SUITE_P(BothVariants, DistMisVariantTest,
                         ::testing::Values(DistMisVariant::kGbg,
                                           DistMisVariant::kGeneral),
                         [](const auto& param_info) {
                           return param_info.param == DistMisVariant::kGbg
                                      ? "Gbg"
                                      : "General";
                         });

TEST(DistMis, EdgelessGraphFinishesImmediately) {
  const Graph graph(4);
  DistMisOptions options;
  const auto result = run_dist_mis(graph, options);
  EXPECT_EQ(result.num_slots, 0u);
  EXPECT_EQ(result.coloring.num_arcs(), 0u);
}

}  // namespace
}  // namespace fdlsp
