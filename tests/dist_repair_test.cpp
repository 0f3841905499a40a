// Tests for the distributed repair protocol.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "algos/dist_repair.h"
#include "algos/repair.h"
#include "coloring/checker.h"
#include "coloring/conflict.h"
#include "coloring/greedy.h"
#include "graph/arcs.h"
#include "graph/generators.h"
#include "sim/fault.h"
#include "support/rng.h"
#include "verify/scenario.h"

#include "fnv64.h"

namespace fdlsp {
namespace {

TEST(DistRepair, ColorsFromScratch) {
  // Entirely uncolored input: repair degenerates to distributed coloring.
  const Graph graph = generate_cycle(8);
  const ArcView view(graph);
  const auto result =
      run_distributed_repair(graph, ArcColoring(view.num_arcs()), 3);
  EXPECT_TRUE(is_feasible_schedule(view, result.coloring));
  EXPECT_EQ(result.recolored_arcs, view.num_arcs());
  EXPECT_GT(result.rounds, 0u);
}

TEST(DistRepair, KeepsFeasibleScheduleUntouched) {
  Rng rng(1001);
  const Graph graph = generate_gnm(25, 55, rng);
  const ArcView view(graph);
  const ArcColoring good = greedy_coloring(view);
  const auto result = run_distributed_repair(graph, good, 5);
  EXPECT_TRUE(is_feasible_schedule(view, result.coloring));
  EXPECT_EQ(result.recolored_arcs, 0u);
  EXPECT_EQ(result.coloring.raw(), good.raw());
}

TEST(DistRepair, FixesInjectedConflict) {
  const Graph path = generate_path(4);
  const ArcView view(path);
  ArcColoring bad = greedy_coloring(view);
  bad.set(view.find_arc(2, 3), bad.color(view.find_arc(0, 1)));
  const auto result = run_distributed_repair(path, bad, 7);
  EXPECT_TRUE(is_feasible_schedule(view, result.coloring));
  EXPECT_GE(result.recolored_arcs, 1u);
  EXPECT_LT(result.recolored_arcs, view.num_arcs());
}

TEST(DistRepair, NodeJoinIsLocal) {
  Rng rng(1003);
  auto positions = generate_udg(40, 5.0, 0.8, rng).positions;
  const Graph old_graph = udg_from_positions(positions, 0.8);
  const ArcView old_view(old_graph);
  const ArcColoring old_coloring = greedy_coloring(old_view);

  positions.push_back(Point{2.5, 2.5});
  const Graph new_graph = udg_from_positions(positions, 0.8);
  const ArcView new_view(new_graph);
  const ArcColoring transferred =
      transfer_coloring(old_view, old_coloring, new_view);

  const auto result = run_distributed_repair(new_graph, transferred, 9);
  EXPECT_TRUE(is_feasible_schedule(new_view, result.coloring));
  EXPECT_LT(result.recolored_arcs, new_view.num_arcs() / 2);
}

TEST(DistRepair, ChurnSequenceStaysFeasible) {
  Rng rng(1007);
  auto positions = generate_udg(30, 4.0, 0.8, rng).positions;
  Graph graph = udg_from_positions(positions, 0.8);
  ArcColoring coloring = greedy_coloring(ArcView(graph));
  for (std::uint64_t step = 0; step < 10; ++step) {
    const std::size_t mover = rng.next_index(positions.size());
    positions[mover] = Point{rng.next_double() * 4.0,
                             rng.next_double() * 4.0};
    const Graph new_graph = udg_from_positions(positions, 0.8);
    const ArcView new_view(new_graph);
    const ArcColoring transferred =
        transfer_coloring(ArcView(graph), coloring, new_view);
    const auto result =
        run_distributed_repair(new_graph, transferred, 100 + step);
    ASSERT_TRUE(is_feasible_schedule(new_view, result.coloring))
        << "step " << step;
    graph = new_graph;
    coloring = result.coloring;
  }
}

TEST(DistRepair, AgreesWithCentralizedRepairOnCost) {
  // The distributed protocol's clearing is more conservative than the
  // centralized one's, but the cost must stay the same order of magnitude.
  Rng rng(1009);
  auto positions = generate_udg(35, 4.5, 0.8, rng).positions;
  const Graph old_graph = udg_from_positions(positions, 0.8);
  const ArcColoring old_coloring = greedy_coloring(ArcView(old_graph));
  positions[7] = Point{2.0, 2.0};
  const Graph new_graph = udg_from_positions(positions, 0.8);
  const ArcView new_view(new_graph);
  const ArcColoring transferred =
      transfer_coloring(ArcView(old_graph), old_coloring, new_view);

  const auto distributed = run_distributed_repair(new_graph, transferred, 11);
  const auto centralized = repair_schedule(new_view, transferred);
  EXPECT_TRUE(is_feasible_schedule(new_view, distributed.coloring));
  EXPECT_TRUE(is_feasible_schedule(new_view, centralized.coloring));
  if (centralized.recolored_arcs > 0) {
    EXPECT_LE(distributed.recolored_arcs,
              10 * centralized.recolored_arcs + 10);
  }
}

TEST(DistRepair, DeterministicUnderSeed) {
  Rng rng(1013);
  const Graph graph = generate_gnm(20, 40, rng);
  const ArcView view(graph);
  const ArcColoring empty(view.num_arcs());
  const auto a = run_distributed_repair(graph, empty, 77);
  const auto b = run_distributed_repair(graph, empty, 77);
  EXPECT_EQ(a.coloring.raw(), b.coloring.raw());
  EXPECT_EQ(a.rounds, b.rounds);
}

TEST(DistRepair, EdgelessGraph) {
  const auto result = run_distributed_repair(Graph(3), ArcColoring(0), 1);
  EXPECT_EQ(result.num_slots, 0u);
}

/// The stale colorings a pinned repair starts from.
enum class Stale {
  kEmpty,      // nothing colored: the soak driver's initial full repair
  kPerturbed,  // greedy, some arcs cleared, some forced into conflict
};

/// A greedy coloring of `view` with every fifth arc cleared and every
/// seventh given the color of its first conflicting arc.
ArcColoring perturbed_coloring(const ArcView& view) {
  ArcColoring coloring = greedy_coloring(view);
  for (ArcId a = 0; a < view.num_arcs(); ++a) {
    if (a % 5 == 1) {
      coloring.clear(a);
    } else if (a % 7 == 3) {
      ArcId first = kNoArc;
      for_each_conflicting_arc(view, a, [&](ArcId b) {
        if (first == kNoArc && coloring.is_colored(b)) first = b;
      });
      if (first != kNoArc) coloring.set(a, coloring.color(first));
    }
  }
  return coloring;
}

TEST(DistRepair, HandlesStaleColorsAboveTheArcCount) {
  // Stale colors come from outside the run, e.g. from a coloring of an
  // older, larger graph, so they may exceed the current arc count. Nodes
  // must still hear them, clear the conflicting ones and color around the
  // survivors.
  for (const GraphFamily family : kAllFamilies) {
    for (const std::size_t n : {8u, 12u, 50u}) {
      for (std::uint64_t seed = 1; seed <= 3; ++seed) {
        Scenario scenario;
        scenario.family = family;
        scenario.n = n;
        scenario.density = 0.4;
        scenario.seed = seed;
        const Graph graph = materialize(scenario);
        const ArcView view(graph);
        ArcColoring stale = perturbed_coloring(view);
        for (ArcId a = 0; a < view.num_arcs(); ++a)
          if (stale.is_colored(a))
            stale.set(a, stale.color(a) + static_cast<Color>(view.num_arcs()));
        const DistRepairResult result =
            run_distributed_repair(graph, stale, seed);
        EXPECT_FALSE(find_violation(view, result.coloring).has_value())
            << family_name(family) << " n=" << n << " seed=" << seed;
      }
    }
  }
}

/// How one pinned repair sweep runs its instances.
enum class RepairMode {
  kSync,        // fault-free, serially and at 4 shards
  kReliable,    // behind the reliable wrapper under drop=0.05,bp=0.2
  kUnhardened,  // no wrapper under drop=0.1,dup=0.1
};

TEST(DistRepair, ExactOutputsArePinned) {
  // The other cases check feasibility and locality only. This one pins the
  // repair's exact output (every arc's color, the recolored-arc, round and
  // message counts) per stale coloring and execution over the six scenario
  // families at n = 8, 12 and 50, seeds 1-3. The sync hash holds serially
  // and at 4 shards. A change to how nodes store what they learn, or to
  // how the protocol competes, must leave every hash as it is.
  struct Pin {
    Stale stale;
    RepairMode mode;
    std::uint64_t hash;
  };
  const Pin pins[] = {
      {Stale::kEmpty, RepairMode::kSync, 0x581a39eae33e39acULL},
      {Stale::kEmpty, RepairMode::kReliable, 0xa70463c0e05dc35eULL},
      {Stale::kEmpty, RepairMode::kUnhardened, 0xae43e1b9b557758dULL},
      {Stale::kPerturbed, RepairMode::kSync, 0xbd58451966cc9a68ULL},
      {Stale::kPerturbed, RepairMode::kReliable, 0xccb25407b9237c5aULL},
      {Stale::kPerturbed, RepairMode::kUnhardened, 0x58016cde1f43ed33ULL},
  };
  const FaultSpec bursty = parse_fault_spec("drop=0.05,bp=0.2");
  const FaultSpec lossy = parse_fault_spec("drop=0.1,dup=0.1");
  for (const Pin& pin : pins) {
    const bool sync = pin.mode == RepairMode::kSync;
    for (const std::size_t shards : {0u, 4u}) {
      if (shards != 0 && !sync) continue;
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
            const ArcView view(graph);
            const ArcColoring stale = pin.stale == Stale::kEmpty
                                          ? ArcColoring(view.num_arcs())
                                          : perturbed_coloring(view);
            RunConfig run;
            run.shards = shards;
            if (pin.mode == RepairMode::kReliable) {
              run.faults = &bursty;
              run.reliable = true;
            } else if (pin.mode == RepairMode::kUnhardened) {
              run.faults = &lossy;
            }
            const DistRepairResult result =
                run_distributed_repair(graph, stale, seed, run);
            ++instances;
            for (ArcId a = 0; a < result.coloring.num_arcs(); ++a)
              hash.add(static_cast<std::uint32_t>(result.coloring.color(a)));
            hash.add(result.recolored_arcs);
            hash.add(result.rounds);
            hash.add(result.messages);
          }
        }
      }
      EXPECT_EQ(instances, 54u);
      EXPECT_EQ(hash.value(), pin.hash)
          << (pin.stale == Stale::kEmpty ? "empty" : "perturbed") << " mode "
          << static_cast<int>(pin.mode) << " shards " << shards << ": got 0x"
          << std::hex << hash.value();
    }
  }
}

}  // namespace
}  // namespace fdlsp
