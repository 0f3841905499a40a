// Tests for the Graph / GraphBuilder / ArcView substrate.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "graph/arcs.h"
#include "graph/graph.h"
#include "support/check.h"

namespace fdlsp {
namespace {

Graph triangle_plus_tail() {
  // 0-1, 1-2, 2-0, 2-3
  GraphBuilder builder(4);
  builder.add_edge(0, 1);
  builder.add_edge(1, 2);
  builder.add_edge(2, 0);
  builder.add_edge(2, 3);
  return builder.build();
}

TEST(Graph, EmptyGraph) {
  Graph graph(5);
  EXPECT_EQ(graph.num_nodes(), 5u);
  EXPECT_EQ(graph.num_edges(), 0u);
  EXPECT_EQ(graph.max_degree(), 0u);
  EXPECT_EQ(graph.degree(0), 0u);
  EXPECT_FALSE(graph.has_edge(0, 1));
}

TEST(Graph, DegreesAndAdjacency) {
  const Graph graph = triangle_plus_tail();
  EXPECT_EQ(graph.num_nodes(), 4u);
  EXPECT_EQ(graph.num_edges(), 4u);
  EXPECT_EQ(graph.degree(0), 2u);
  EXPECT_EQ(graph.degree(2), 3u);
  EXPECT_EQ(graph.degree(3), 1u);
  EXPECT_EQ(graph.max_degree(), 3u);
  EXPECT_DOUBLE_EQ(graph.average_degree(), 2.0);
}

TEST(Graph, NeighborsSortedWithEdgeIds) {
  const Graph graph = triangle_plus_tail();
  const auto adj = graph.neighbors(2);
  ASSERT_EQ(adj.size(), 3u);
  EXPECT_TRUE(std::is_sorted(
      adj.begin(), adj.end(),
      [](const NeighborEntry& a, const NeighborEntry& b) { return a.to < b.to; }));
  for (const NeighborEntry& entry : adj) {
    const Edge& e = graph.edge(entry.edge);
    EXPECT_TRUE(e.u == 2 || e.v == 2);
  }
}

TEST(Graph, HasEdgeAndFindEdge) {
  const Graph graph = triangle_plus_tail();
  EXPECT_TRUE(graph.has_edge(0, 1));
  EXPECT_TRUE(graph.has_edge(1, 0));
  EXPECT_FALSE(graph.has_edge(0, 3));
  const EdgeId e = graph.find_edge(2, 3);
  ASSERT_NE(e, kNoEdge);
  EXPECT_EQ(graph.edge(e).u, 2u);
  EXPECT_EQ(graph.edge(e).v, 3u);
  EXPECT_EQ(graph.find_edge(0, 3), kNoEdge);
}

TEST(Graph, EdgesStoredCanonically) {
  GraphBuilder builder(3);
  builder.add_edge(2, 0);
  const Graph graph = builder.build();
  EXPECT_EQ(graph.edge(0).u, 0u);
  EXPECT_EQ(graph.edge(0).v, 2u);
}

TEST(GraphBuilder, RejectsSelfLoop) {
  GraphBuilder builder(3);
  EXPECT_THROW(builder.add_edge(1, 1), contract_error);
}

TEST(GraphBuilder, RejectsDuplicateEdge) {
  GraphBuilder builder(3);
  builder.add_edge(0, 1);
  EXPECT_THROW(builder.add_edge(1, 0), contract_error);
}

TEST(GraphBuilder, RejectsOutOfRangeEndpoint) {
  GraphBuilder builder(2);
  EXPECT_THROW(builder.add_edge(0, 2), contract_error);
}

TEST(ArcView, TailHeadReverse) {
  const Graph graph = triangle_plus_tail();
  const ArcView view(graph);
  EXPECT_EQ(view.num_arcs(), 8u);
  for (ArcId a = 0; a < view.num_arcs(); ++a) {
    const ArcId r = ArcView::reverse(a);
    EXPECT_NE(a, r);
    EXPECT_EQ(ArcView::reverse(r), a);
    EXPECT_EQ(view.tail(a), view.head(r));
    EXPECT_EQ(view.head(a), view.tail(r));
    EXPECT_EQ(ArcView::edge_of(a), ArcView::edge_of(r));
  }
}

TEST(ArcView, FindArcDirectional) {
  const Graph graph = triangle_plus_tail();
  const ArcView view(graph);
  const ArcId a = view.find_arc(2, 3);
  ASSERT_NE(a, kNoArc);
  EXPECT_EQ(view.tail(a), 2u);
  EXPECT_EQ(view.head(a), 3u);
  const ArcId b = view.find_arc(3, 2);
  EXPECT_EQ(b, ArcView::reverse(a));
  EXPECT_EQ(view.find_arc(0, 3), kNoArc);
}

TEST(ArcView, OutInIncidentArcs) {
  const Graph graph = triangle_plus_tail();
  const ArcView view(graph);
  std::vector<ArcId> out;
  view.for_each_out_arc(2, [&](ArcId a) { out.push_back(a); });
  ASSERT_EQ(out.size(), 3u);
  for (ArcId a : out) EXPECT_EQ(view.tail(a), 2u);
  std::vector<ArcId> incident;
  view.for_each_incident_arc(2, [&](ArcId a) { incident.push_back(a); });
  ASSERT_EQ(incident.size(), 6u);
  // Outgoing first, then incoming, each in adjacency order.
  EXPECT_EQ(std::vector<ArcId>(incident.begin(), incident.begin() + 3), out);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(incident[3 + i], ArcView::reverse(out[i]));
    EXPECT_EQ(view.head(incident[3 + i]), 2u);
  }
}

TEST(ArcView, ArcIdsAreDenseAndConsistent) {
  const Graph graph = triangle_plus_tail();
  const ArcView view(graph);
  for (NodeId v = 0; v < graph.num_nodes(); ++v) {
    for (const NeighborEntry& entry : graph.neighbors(v)) {
      // Arc 2e runs u -> v of edge e = {u, v}, arc 2e + 1 back.
      const ArcId a = arc_along(v, entry);
      const bool forward = graph.edge(entry.edge).u == v;
      EXPECT_EQ(a, static_cast<ArcId>(2 * entry.edge + (forward ? 0 : 1)));
      EXPECT_EQ(view.tail(a), v);
      EXPECT_EQ(view.head(a), entry.to);
      EXPECT_EQ(view.find_arc(v, entry.to), a);
    }
  }
}

}  // namespace
}  // namespace fdlsp
