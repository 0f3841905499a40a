// Undirected simple graph with CSR adjacency.
//
// This is the communication-network model of the paper: nodes are sensors,
// edges are bidirectional non-interfering links. The structure is immutable
// after construction (build via GraphBuilder); all algorithms treat it as a
// shared read-only input, which is what makes the parallel experiment harness
// trivially safe.
#pragma once

#include <algorithm>
#include <span>
#include <vector>

#include "graph/types.h"
#include "support/check.h"

namespace fdlsp {

/// An undirected edge; endpoints are stored with u < v.
struct Edge {
  NodeId u;
  NodeId v;

  friend bool operator==(const Edge&, const Edge&) = default;
};

/// One adjacency entry: the neighbor and the id of the connecting edge.
struct NeighborEntry {
  NodeId to;
  EdgeId edge;
};

/// The entry of `to` in an adjacency row sorted by neighbor id (a
/// Graph::neighbors span), or nullptr when `to` is not in it. One binary
/// search; the engines use it as their "direct neighbors only" check.
inline const NeighborEntry* find_neighbor(std::span<const NeighborEntry> row,
                                          NodeId to) {
  const auto it = std::lower_bound(
      row.begin(), row.end(), to,
      [](const NeighborEntry& entry, NodeId node) { return entry.to < node; });
  return it != row.end() && it->to == to ? &*it : nullptr;
}

class GraphBuilder;

/// Immutable undirected simple graph.
class Graph {
 public:
  /// An empty graph with `n` isolated nodes.
  explicit Graph(std::size_t n = 0);

  std::size_t num_nodes() const noexcept { return offsets_.size() - 1; }
  std::size_t num_edges() const noexcept { return edges_.size(); }

  /// Degree of node v.
  std::size_t degree(NodeId v) const {
    FDLSP_ASSERT(v < num_nodes(), "node out of range");
    return offsets_[v + 1] - offsets_[v];
  }

  /// Adjacency list of v, sorted by neighbor id.
  std::span<const NeighborEntry> neighbors(NodeId v) const {
    FDLSP_ASSERT(v < num_nodes(), "node out of range");
    return {adjacency_.data() + offsets_[v], offsets_[v + 1] - offsets_[v]};
  }

  /// True iff {u, v} is an edge. O(log degree).
  bool has_edge(NodeId u, NodeId v) const;

  /// Edge id of {u, v}, or kNoEdge. O(log degree).
  EdgeId find_edge(NodeId u, NodeId v) const;

  /// All edges, indexed by EdgeId.
  std::span<const Edge> edges() const noexcept { return edges_; }

  /// Endpoints of edge e.
  const Edge& edge(EdgeId e) const {
    FDLSP_ASSERT(e < edges_.size(), "edge out of range");
    return edges_[e];
  }

  /// Maximum node degree Δ (0 for an edgeless graph).
  std::size_t max_degree() const noexcept { return max_degree_; }

  /// Mean node degree 2m/n (0 for the empty graph).
  double average_degree() const noexcept {
    return num_nodes() == 0
               ? 0.0
               : 2.0 * static_cast<double>(num_edges()) /
                     static_cast<double>(num_nodes());
  }

 private:
  friend class GraphBuilder;

  std::vector<Edge> edges_;
  std::vector<std::size_t> offsets_;      // n + 1 entries
  std::vector<NeighborEntry> adjacency_;  // 2m entries, sorted per node
  std::size_t max_degree_ = 0;
};

/// Accumulates edges, then freezes them into an immutable Graph.
///
/// Duplicate edges and self-loops are rejected eagerly so corrupted inputs
/// fail at the point of insertion.
class GraphBuilder {
 public:
  explicit GraphBuilder(std::size_t n);

  std::size_t num_nodes() const noexcept { return n_; }

  /// Adds edge {u, v}; u != v required. Returns the assigned edge id.
  /// Duplicates are rejected with contract_error.
  EdgeId add_edge(NodeId u, NodeId v);

  /// True if {u, v} has already been added. O(degree).
  bool has_edge(NodeId u, NodeId v) const;

  /// Freezes into a Graph. The builder is left empty.
  Graph build();

  /// Builds a Graph in one linear pass from a symmetric CSR adjacency the
  /// caller guarantees well-formed: offsets has n+1 entries, every row is
  /// sorted and duplicate-free, v appears in u's row iff u appears in v's,
  /// and no self-loops. Skips the builder's duplicate scans and the
  /// per-node adjacency sorts; this is how a ConflictIndex becomes the
  /// Lemma-6 conflict graph without re-deriving structure it already holds.
  static Graph build_from_symmetric_csr(std::size_t n,
                                        std::span<const std::size_t> offsets,
                                        std::span<const NodeId> adjacency);

 private:
  std::size_t n_;
  std::vector<Edge> edges_;
  std::vector<std::vector<NodeId>> pending_;  // adjacency during building
};

}  // namespace fdlsp
