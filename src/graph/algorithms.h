// Basic graph algorithms: traversal, connectivity, k-hop neighborhoods,
// triangle/common-neighbor queries. These back both the distributed
// algorithms' local views and the Theorem-1 lower bound computation.
#pragma once

#include <span>
#include <vector>

#include "graph/graph.h"
#include "graph/types.h"

namespace fdlsp {

/// BFS distances from `source`; unreachable nodes get kUnreachable.
inline constexpr std::size_t kUnreachable = static_cast<std::size_t>(-1);
std::vector<std::size_t> bfs_distances(const Graph& graph, NodeId source);

/// True iff the graph is connected (vacuously true for n <= 1).
bool is_connected(const Graph& graph);

/// Component label per node, labels dense in [0, #components).
std::vector<std::size_t> connected_components(const Graph& graph);

/// Number of connected components.
std::size_t count_components(const Graph& graph);

/// Nodes of the largest connected component (by node count).
std::vector<NodeId> largest_component(const Graph& graph);

/// Induced subgraph on `nodes`; also returns the mapping old->new id
/// (kNoNode for nodes outside the set).
struct InducedSubgraph {
  Graph graph;
  std::vector<NodeId> to_sub;     // size = original n
  std::vector<NodeId> to_original;  // size = |nodes|
};
InducedSubgraph induced_subgraph(const Graph& graph,
                                 const std::vector<NodeId>& nodes);

/// All nodes within shortest-path distance <= radius of v, excluding v,
/// in ascending id order.
std::vector<NodeId> k_hop_neighborhood(const Graph& graph, NodeId v,
                                       std::size_t radius);

/// Flags of the multi-source ball N^radius[sources]: 1 for every node
/// within `radius` hops of some source, the sources included, else 0. One
/// breadth-first walk; duplicate sources are fine, and no source gives an
/// all-zero vector.
std::vector<char> hop_ball(const Graph& graph,
                           std::span<const NodeId> sources,
                           std::size_t radius);

/// Common neighbors of u and v in ascending order (triangle support of the
/// edge {u, v}). O(deg u + deg v).
std::vector<NodeId> common_neighbors(const Graph& graph, NodeId u, NodeId v);

/// Total number of triangles in the graph.
std::size_t count_triangles(const Graph& graph);

/// Graph diameter of the (assumed connected) graph; kUnreachable if
/// disconnected. O(n * m) — intended for experiment reporting, not hot paths.
std::size_t diameter(const Graph& graph);

}  // namespace fdlsp
