// Tests for incremental schedule repair (future-work extension).
#include <gtest/gtest.h>

#include "algos/repair.h"
#include "coloring/checker.h"
#include "coloring/greedy.h"
#include "graph/arcs.h"
#include "graph/generators.h"
#include "support/rng.h"

namespace fdlsp {
namespace {

TEST(TransferColoring, KeepsSurvivingLinks) {
  // Path 0-1-2 -> edge {1,2} removed, edge {0,2}... keep node set, change
  // edges: old path 0-1-2, new graph 0-1 only plus 1-2 replaced by 0-2.
  const Graph old_graph = generate_path(3);
  const ArcView old_view(old_graph);
  const ArcColoring old_coloring = greedy_coloring(old_view);

  GraphBuilder builder(3);
  builder.add_edge(0, 1);  // survives
  builder.add_edge(0, 2);  // new link
  const Graph new_graph = builder.build();
  const ArcView new_view(new_graph);
  const ArcColoring transferred =
      transfer_coloring(old_view, old_coloring, new_view);

  EXPECT_EQ(transferred.color(new_view.find_arc(0, 1)),
            old_coloring.color(old_view.find_arc(0, 1)));
  EXPECT_EQ(transferred.color(new_view.find_arc(1, 0)),
            old_coloring.color(old_view.find_arc(1, 0)));
  EXPECT_FALSE(transferred.is_colored(new_view.find_arc(0, 2)));
  EXPECT_FALSE(transferred.is_colored(new_view.find_arc(2, 0)));
}

TEST(TransferColoring, JoinedNodeArcsStartUncolored) {
  // The new graph grew by one node: its ids beyond the old node count must
  // not be looked up in the old graph. Every arc touching the newcomer
  // starts uncolored; every surviving arc keeps its color.
  Rng rng(713);
  auto positions = generate_udg(20, 3.0, 0.8, rng).positions;
  const Graph old_graph = udg_from_positions(positions, 0.8);
  const ArcView old_view(old_graph);
  const ArcColoring old_coloring = greedy_coloring(old_view);

  positions.push_back(Point{1.5, 1.5});
  const Graph new_graph = udg_from_positions(positions, 0.8);
  const ArcView new_view(new_graph);
  const NodeId joined = static_cast<NodeId>(old_graph.num_nodes());
  ASSERT_GT(new_graph.degree(joined), 0u) << "the newcomer has no links";

  const ArcColoring transferred =
      transfer_coloring(old_view, old_coloring, new_view);
  std::size_t survivors = 0;
  for (ArcId a = 0; a < new_view.num_arcs(); ++a) {
    const NodeId tail = new_view.tail(a);
    const NodeId head = new_view.head(a);
    if (tail == joined || head == joined) {
      EXPECT_FALSE(transferred.is_colored(a)) << tail << "->" << head;
      continue;
    }
    // Positions of the old nodes are unchanged, so every other link
    // survives.
    const ArcId old_arc = old_view.find_arc(tail, head);
    ASSERT_NE(old_arc, kNoArc) << tail << "->" << head;
    EXPECT_EQ(transferred.color(a), old_coloring.color(old_arc))
        << tail << "->" << head;
    ++survivors;
  }
  EXPECT_EQ(survivors, old_view.num_arcs());
}

TEST(Repair, CompletesPartialColoring) {
  const Graph graph = generate_cycle(6);
  const ArcView view(graph);
  ArcColoring partial(view.num_arcs());  // nothing colored
  const RepairResult result = repair_schedule(view, std::move(partial));
  EXPECT_TRUE(is_feasible_schedule(view, result.coloring));
  EXPECT_EQ(result.recolored_arcs, view.num_arcs());
}

TEST(Repair, NoOpOnFeasibleSchedule) {
  Rng rng(701);
  const Graph graph = generate_gnm(20, 45, rng);
  const ArcView view(graph);
  const ArcColoring coloring = greedy_coloring(view);
  const RepairResult result = repair_schedule(view, coloring);
  EXPECT_EQ(result.recolored_arcs, 0u);
  EXPECT_EQ(result.coloring.raw(), coloring.raw());
}

TEST(Repair, ClearsInjectedConflicts) {
  const Graph path = generate_path(4);
  const ArcView view(path);
  ArcColoring bad = greedy_coloring(view);
  // Force the hidden-terminal clash (0->1) vs (2->3).
  bad.set(view.find_arc(2, 3), bad.color(view.find_arc(0, 1)));
  const RepairResult result = repair_schedule(view, std::move(bad));
  EXPECT_TRUE(is_feasible_schedule(view, result.coloring));
  EXPECT_GE(result.recolored_arcs, 1u);
}

TEST(Repair, NodeJoinTouchesNeighborhoodOnly) {
  // A 30-node UDG gains one node; repair should recolor only arcs near the
  // newcomer, far fewer than a full recompute.
  Rng rng(703);
  auto positions = generate_udg(30, 4.0, 0.8, rng).positions;
  const Graph old_graph = udg_from_positions(positions, 0.8);
  const ArcView old_view(old_graph);
  const ArcColoring old_coloring = greedy_coloring(old_view);

  positions.push_back(Point{2.0, 2.0});  // join near the middle
  const Graph new_graph = udg_from_positions(positions, 0.8);
  const ArcView new_view(new_graph);

  ArcColoring transferred =
      transfer_coloring(old_view, old_coloring, new_view);
  const RepairResult result =
      repair_schedule(new_view, std::move(transferred));
  EXPECT_TRUE(is_feasible_schedule(new_view, result.coloring));
  EXPECT_LT(result.recolored_arcs, new_view.num_arcs() / 2);
}

TEST(Repair, NodeFailureNeedsNoRecoloring) {
  // Removing links never creates conflicts: transfer + repair recolors 0.
  Rng rng(709);
  auto positions = generate_udg(25, 4.0, 0.8, rng).positions;
  const Graph old_graph = udg_from_positions(positions, 0.8);
  const ArcView old_view(old_graph);
  const ArcColoring old_coloring = greedy_coloring(old_view);

  positions[3] = Point{100.0, 100.0};  // node 3 effectively fails
  const Graph new_graph = udg_from_positions(positions, 0.8);
  const ArcView new_view(new_graph);
  ArcColoring transferred =
      transfer_coloring(old_view, old_coloring, new_view);
  const RepairResult result =
      repair_schedule(new_view, std::move(transferred));
  EXPECT_TRUE(is_feasible_schedule(new_view, result.coloring));
  EXPECT_EQ(result.recolored_arcs, 0u);
}

TEST(Repair, RandomChurnSequenceStaysFeasible) {
  // Failure injection: 30 random moves; feasibility must hold after every
  // repair and the cost must stay below full recompute.
  Rng rng(711);
  auto positions = generate_udg(40, 5.0, 0.8, rng).positions;
  Graph graph = udg_from_positions(positions, 0.8);
  ArcColoring coloring = greedy_coloring(ArcView(graph));

  for (int step = 0; step < 30; ++step) {
    const std::size_t mover = rng.next_index(positions.size());
    positions[mover] =
        Point{rng.next_double() * 5.0, rng.next_double() * 5.0};
    const Graph new_graph = udg_from_positions(positions, 0.8);
    const ArcView new_view(new_graph);
    ArcColoring transferred =
        transfer_coloring(ArcView(graph), coloring, new_view);
    RepairResult result = repair_schedule(new_view, std::move(transferred));
    ASSERT_TRUE(is_feasible_schedule(new_view, result.coloring))
        << "step " << step;
    graph = new_graph;
    coloring = std::move(result.coloring);
  }
}

}  // namespace
}  // namespace fdlsp
