// Bi-directed view of an undirected graph (Definition 1 of the paper).
//
// Every undirected edge e = {u, v} (stored with u < v) induces two arcs:
//   arc 2e   : u -> v   (u transmits, v receives)
//   arc 2e+1 : v -> u
// Arc ids are dense in [0, 2m), which lets colorings be plain vectors.
#pragma once

#include "graph/graph.h"
#include "graph/types.h"

namespace fdlsp {

/// Arc from -> entry.to over the edge of `entry`, an entry of from's
/// adjacency row. Edges store u < v, so the direction bit is the id
/// comparison: no Edge load.
inline ArcId arc_along(NodeId from, const NeighborEntry& entry) noexcept {
  return static_cast<ArcId>((entry.edge << 1) | (from < entry.to ? 0u : 1u));
}

/// Read-only arc (bi-directed) view over a Graph. Holds a reference; the
/// graph must outlive the view.
class ArcView {
 public:
  explicit ArcView(const Graph& graph) : graph_(&graph) {}

  const Graph& graph() const noexcept { return *graph_; }

  /// Number of arcs: 2m.
  std::size_t num_arcs() const noexcept { return 2 * graph_->num_edges(); }

  /// Transmitting endpoint of arc a.
  NodeId tail(ArcId a) const {
    const Edge& e = graph_->edge(a >> 1);
    return (a & 1) == 0 ? e.u : e.v;
  }

  /// Receiving endpoint of arc a.
  NodeId head(ArcId a) const {
    const Edge& e = graph_->edge(a >> 1);
    return (a & 1) == 0 ? e.v : e.u;
  }

  /// The opposite arc over the same edge.
  static ArcId reverse(ArcId a) noexcept { return a ^ 1; }

  /// Undirected edge carrying arc a.
  static EdgeId edge_of(ArcId a) noexcept { return a >> 1; }

  /// Arc u -> v, or kNoArc if {u, v} is not an edge.
  ArcId find_arc(NodeId from, NodeId to) const {
    const EdgeId e = graph_->find_edge(from, to);
    return e == kNoEdge ? kNoArc : arc_along(from, NeighborEntry{to, e});
  }

  /// Calls fn(a) for every arc leaving v (v transmits), in v's adjacency
  /// order. Allocates nothing.
  template <typename Fn>
  void for_each_out_arc(NodeId v, Fn&& fn) const {
    for (const NeighborEntry& entry : graph_->neighbors(v))
      fn(arc_along(v, entry));
  }

  /// Calls fn(a) for every arc incident on v: the outgoing arcs first, then
  /// the incoming ones, each in v's adjacency order. Allocates nothing.
  template <typename Fn>
  void for_each_incident_arc(NodeId v, Fn&& fn) const {
    for_each_out_arc(v, fn);
    for_each_out_arc(v, [&](ArcId a) { fn(reverse(a)); });
  }

 private:
  const Graph* graph_;
};

}  // namespace fdlsp
