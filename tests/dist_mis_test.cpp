// Tests for the DistMIS distributed algorithm (both variants) and its
// learned-color store.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <vector>

#include "algos/dist_mis.h"
#include "algos/learned_colors.h"
#include "coloring/bounds.h"
#include "coloring/checker.h"
#include "coloring/conflict.h"
#include "graph/arcs.h"
#include "graph/generators.h"
#include "sim/fault.h"
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

/// One scenario graph and the seed that generated it.
struct Instance {
  Graph graph;
  std::uint64_t seed;
};

/// The six scenario families at n = 8, 12 and 50, seeds 1-3: 54 graphs,
/// isolated nodes and disconnected ones among them.
std::vector<Instance> family_instances() {
  std::vector<Instance> instances;
  for (const GraphFamily family : kAllFamilies) {
    for (const std::size_t n : {8u, 12u, 50u}) {
      for (std::uint64_t seed = 1; seed <= 3; ++seed) {
        Scenario scenario;
        scenario.family = family;
        scenario.n = n;
        scenario.density = 0.4;
        scenario.seed = seed;
        instances.push_back({materialize(scenario), seed});
      }
    }
  }
  return instances;
}

/// The arcs node v colors on a win: all incident arcs for kGbg, the
/// outgoing ones for kGeneral.
std::vector<ArcId> own_arcs(const ArcView& view, DistMisVariant variant,
                            NodeId v) {
  std::vector<ArcId> arcs;
  const auto add = [&](ArcId a) { arcs.push_back(a); };
  if (variant == DistMisVariant::kGbg) {
    view.for_each_incident_arc(v, add);
  } else {
    view.for_each_out_arc(v, add);
  }
  return arcs;
}

/// Every lookup of the store: color(v, a) for every node and arc.
std::vector<Color> all_lookups(const LearnedColors& colors,
                               const ArcView& view) {
  std::vector<Color> lookups;
  for (NodeId v = 0; v < view.graph().num_nodes(); ++v)
    for (ArcId a = 0; a < view.num_arcs(); ++a)
      lookups.push_back(colors.color(v, a));
  return lookups;
}

class LearnedColorsTest : public ::testing::TestWithParam<DistMisVariant> {};

TEST_P(LearnedColorsTest, ReadableArcsAreTheConflictUnion) {
  // The store builds R(v) from a distance rule; a node reads its own arcs
  // and every arc conflicting with one of them, so the two sets must agree
  // on every node, isolated ones (R(v) empty) included.
  std::size_t isolated = 0;
  for (const Instance& instance : family_instances()) {
    const Graph& graph = instance.graph;
    const ArcView view(graph);
    const LearnedColors colors(view, GetParam());
    std::size_t readable_total = 0;
    for (NodeId v = 0; v < graph.num_nodes(); ++v) {
      if (graph.degree(v) == 0) ++isolated;
      std::vector<ArcId> expected = own_arcs(view, GetParam(), v);
      for (const ArcId a : own_arcs(view, GetParam(), v))
        for_each_conflicting_arc(view, a,
                                 [&](ArcId b) { expected.push_back(b); });
      std::sort(expected.begin(), expected.end());
      expected.erase(std::unique(expected.begin(), expected.end()),
                     expected.end());
      std::vector<ArcId> readable;
      colors.for_each_readable(v, [&](ArcId a) { readable.push_back(a); });
      std::sort(readable.begin(), readable.end());
      ASSERT_EQ(readable, expected) << "node " << v;
      readable_total += readable.size();
    }
    EXPECT_EQ(colors.capacity(), 2 * readable_total);
  }
  EXPECT_GT(isolated, 0u);
}

TEST_P(LearnedColorsTest, DropsWritesItNeverReads) {
  // A write outside R(v), or at a retired node, changes no lookup at any
  // node; a write inside R(v) at a live node is read back.
  std::size_t dropped = 0;
  for (const Instance& instance : family_instances()) {
    const Graph& graph = instance.graph;
    const ArcView view(graph);
    const std::size_t n = graph.num_nodes();
    LearnedColors colors(view, GetParam());
    std::vector<std::vector<char>> reads(n,
                                         std::vector<char>(view.num_arcs()));
    for (NodeId v = 0; v < n; ++v) {
      colors.for_each_readable(v, [&](ArcId a) { reads[v][a] = 1; });
      // Even nodes learn a color for every arc they read.
      if (v % 2 == 0)
        colors.for_each_readable(v, [&](ArcId a) {
          colors.learn(v, a, static_cast<Color>(a % 7));
        });
    }
    for (NodeId v = 0; v < n; ++v)
      for (ArcId a = 0; a < view.num_arcs(); ++a)
        ASSERT_EQ(colors.color(v, a),
                  v % 2 == 0 && reads[v][a] != 0 ? static_cast<Color>(a % 7)
                                                 : kNoColor);
    const std::vector<Color> before = all_lookups(colors, view);
    for (NodeId v = 0; v < n; ++v) {
      for (ArcId a = 0; a < view.num_arcs(); ++a) {
        if (reads[v][a] != 0) continue;
        colors.learn(v, a, 3);
        ++dropped;
      }
    }
    EXPECT_EQ(all_lookups(colors, view), before);
    for (NodeId v = 0; v < n; v += 3) {
      colors.retire(v);
      colors.for_each_readable(v, [&](ArcId a) {
        colors.learn(v, a, 5);
        ++dropped;
      });
    }
    EXPECT_EQ(all_lookups(colors, view), before);
  }
  EXPECT_GT(dropped, 0u);
}

INSTANTIATE_TEST_SUITE_P(BothVariants, LearnedColorsTest,
                         ::testing::Values(DistMisVariant::kGbg,
                                           DistMisVariant::kGeneral),
                         [](const auto& param_info) {
                           return param_info.param == DistMisVariant::kGbg
                                      ? "Gbg"
                                      : "General";
                         });

/// How one pinned DistMIS sweep runs its instances.
enum class PinnedMode {
  kSync,           // synchronous engine, serial and at 4 shards
  kAsyncUnit,      // behind the α-synchronizer, per delay model
  kAsyncUniform,
  kAsyncAdversarial,
  kUnhardened,     // synchronous, lossy and corrupting plan, no wrapper
};

/// Runs `variant` on one instance in `mode` (sync at `shards`).
ScheduleResult run_pinned(const Graph& graph, DistMisVariant variant,
                          PinnedMode mode, std::uint64_t seed,
                          std::size_t shards, const FaultSpec& faults) {
  if (mode == PinnedMode::kSync || mode == PinnedMode::kUnhardened) {
    DistMisOptions options = options_for(variant, seed);
    options.shards = shards;
    if (mode == PinnedMode::kUnhardened) options.faults = &faults;
    return run_dist_mis(graph, options);
  }
  AsyncDistMisOptions options;
  options.variant = variant;
  options.seed = seed;
  options.delay_seed = seed;
  options.delay_model = mode == PinnedMode::kAsyncUnit ? DelayModel::kUnit
                        : mode == PinnedMode::kAsyncUniform
                            ? DelayModel::kUniformRandom
                            : DelayModel::kAdversarial;
  return run_dist_mis_async(graph, options);
}

TEST(DistMis, ExactOutputsArePinned) {
  // The other cases check feasibility and bounds only. This one pins
  // DistMIS's exact output (every arc's color, the round and message
  // counts, and the async completion time) per variant and execution over
  // the six scenario families at n = 8, 12 and 50, seeds 1-3. The sync
  // hash holds serially and at 4 shards; the unhardened run under
  // drop=0.1,dup=0.1,corrupt=0.05,fseed=7 pins what a run allowed to miss
  // the algorithm's guarantees computes. A change to how nodes store what
  // they learn, or to how the engines run them, must leave every hash as
  // it is.
  struct Pin {
    DistMisVariant variant;
    PinnedMode mode;
    std::uint64_t hash;
  };
  using Mode = PinnedMode;
  constexpr DistMisVariant kGbg = DistMisVariant::kGbg;
  constexpr DistMisVariant kGeneral = DistMisVariant::kGeneral;
  const Pin pins[] = {
      {kGbg, Mode::kSync, 0x169422f43dcc1defULL},
      {kGbg, Mode::kAsyncUnit, 0x994be8b7f2f131abULL},
      {kGbg, Mode::kAsyncUniform, 0xefbc5e210c152211ULL},
      {kGbg, Mode::kAsyncAdversarial, 0x037e6b6dbdd9d232ULL},
      {kGbg, Mode::kUnhardened, 0x079ee396dcae6895ULL},
      {kGeneral, Mode::kSync, 0x0e72321d4b969d06ULL},
      {kGeneral, Mode::kAsyncUnit, 0x2758f042bec269fbULL},
      {kGeneral, Mode::kAsyncUniform, 0x56f08e5b05b97b8eULL},
      {kGeneral, Mode::kAsyncAdversarial, 0x7e5f01bcd6c5485dULL},
      {kGeneral, Mode::kUnhardened, 0x64910ea7acea0822ULL},
  };
  const FaultSpec faults =
      parse_fault_spec("drop=0.1,dup=0.1,corrupt=0.05,fseed=7");
  const std::vector<Instance> instances = family_instances();
  ASSERT_EQ(instances.size(), 54u);
  for (const Pin& pin : pins) {
    const bool sync = pin.mode == PinnedMode::kSync;
    for (const std::size_t shards : {0u, 4u}) {
      if (shards != 0 && !sync) continue;
      Fnv64 hash;
      for (const auto& [graph, seed] : instances) {
        const ScheduleResult result =
            run_pinned(graph, pin.variant, pin.mode, seed, shards, faults);
        for (ArcId a = 0; a < result.coloring.num_arcs(); ++a)
          hash.add(static_cast<std::uint32_t>(result.coloring.color(a)));
        hash.add(result.rounds);
        hash.add(result.messages);
        if (!sync && pin.mode != PinnedMode::kUnhardened)
          hash.add(std::bit_cast<std::uint64_t>(result.async_time));
      }
      EXPECT_EQ(hash.value(), pin.hash)
          << (pin.variant == DistMisVariant::kGbg ? "GBG" : "general")
          << " mode " << static_cast<int>(pin.mode) << " shards " << shards
          << ": got 0x" << std::hex << hash.value();
    }
  }
}

}  // namespace
}  // namespace fdlsp
