#include "graph/graph.h"

#include <algorithm>
#include <utility>

namespace fdlsp {

Graph::Graph(std::size_t n) : offsets_(n + 1, 0) {}

bool Graph::has_edge(NodeId u, NodeId v) const {
  return find_edge(u, v) != kNoEdge;
}

EdgeId Graph::find_edge(NodeId u, NodeId v) const {
  FDLSP_ASSERT(u < num_nodes() && v < num_nodes(), "node out of range");
  // Search the smaller adjacency list.
  if (degree(u) > degree(v)) std::swap(u, v);
  const NeighborEntry* entry = find_neighbor(neighbors(u), v);
  return entry != nullptr ? entry->edge : kNoEdge;
}

GraphBuilder::GraphBuilder(std::size_t n) : n_(n), pending_(n) {}

EdgeId GraphBuilder::add_edge(NodeId u, NodeId v) {
  FDLSP_REQUIRE(u < n_ && v < n_, "endpoint out of range");
  FDLSP_REQUIRE(u != v, "self-loops are not allowed");
  FDLSP_REQUIRE(!has_edge(u, v), "duplicate edge");
  if (u > v) std::swap(u, v);
  const auto id = static_cast<EdgeId>(edges_.size());
  edges_.push_back(Edge{u, v});
  pending_[u].push_back(v);
  pending_[v].push_back(u);
  return id;
}

bool GraphBuilder::has_edge(NodeId u, NodeId v) const {
  FDLSP_REQUIRE(u < n_ && v < n_, "endpoint out of range");
  const auto& smaller =
      pending_[u].size() <= pending_[v].size() ? pending_[u] : pending_[v];
  const NodeId target = pending_[u].size() <= pending_[v].size() ? v : u;
  return std::find(smaller.begin(), smaller.end(), target) != smaller.end();
}

Graph GraphBuilder::build() {
  Graph graph(n_);
  graph.edges_ = std::move(edges_);
  edges_.clear();

  graph.offsets_.assign(n_ + 1, 0);
  for (const Edge& e : graph.edges_) {
    ++graph.offsets_[e.u + 1];
    ++graph.offsets_[e.v + 1];
  }
  for (std::size_t v = 0; v < n_; ++v)
    graph.offsets_[v + 1] += graph.offsets_[v];

  graph.adjacency_.resize(2 * graph.edges_.size());
  std::vector<std::size_t> cursor(graph.offsets_.begin(),
                                  graph.offsets_.end() - 1);
  for (EdgeId e = 0; e < graph.edges_.size(); ++e) {
    const Edge& edge = graph.edges_[e];
    graph.adjacency_[cursor[edge.u]++] = NeighborEntry{edge.v, e};
    graph.adjacency_[cursor[edge.v]++] = NeighborEntry{edge.u, e};
  }
  for (std::size_t v = 0; v < n_; ++v) {
    auto begin = graph.adjacency_.begin() +
                 static_cast<std::ptrdiff_t>(graph.offsets_[v]);
    auto end = graph.adjacency_.begin() +
               static_cast<std::ptrdiff_t>(graph.offsets_[v + 1]);
    std::sort(begin, end, [](const NeighborEntry& a, const NeighborEntry& b) {
      return a.to < b.to;
    });
    graph.max_degree_ = std::max(
        graph.max_degree_, static_cast<std::size_t>(end - begin));
  }

  for (auto& adj : pending_) adj.clear();
  return graph;
}

Graph GraphBuilder::build_from_symmetric_csr(
    std::size_t n, std::span<const std::size_t> offsets,
    std::span<const NodeId> adjacency) {
  FDLSP_REQUIRE(offsets.size() == n + 1 && offsets[0] == 0 &&
                    offsets[n] == adjacency.size(),
                "malformed CSR offsets");
  FDLSP_REQUIRE(adjacency.size() % 2 == 0,
                "symmetric CSR needs an even entry count");
  Graph graph(n);
  graph.offsets_.assign(offsets.begin(), offsets.end());
  graph.edges_.reserve(adjacency.size() / 2);
  graph.adjacency_.resize(adjacency.size());

  // Emit each edge from its lower endpoint and cursor-fill both endpoints'
  // slots. Rows are visited in ascending node order and are themselves
  // sorted, so every adjacency region fills in sorted order (lower
  // neighbors first, then higher) — no per-node sort needed.
  std::vector<std::size_t> cursor(offsets.begin(), offsets.end() - 1);
  for (NodeId u = 0; u < n; ++u) {
    for (std::size_t i = offsets[u]; i < offsets[u + 1]; ++i) {
      const NodeId v = adjacency[i];
      FDLSP_ASSERT(v < n && v != u, "invalid neighbor in CSR row");
      FDLSP_ASSERT(i == offsets[u] || adjacency[i - 1] < v,
                   "CSR row not sorted/deduplicated");
      if (v < u) continue;  // edge already emitted from the lower endpoint
      const auto e = static_cast<EdgeId>(graph.edges_.size());
      graph.edges_.push_back(Edge{u, v});
      graph.adjacency_[cursor[u]++] = NeighborEntry{v, e};
      graph.adjacency_[cursor[v]++] = NeighborEntry{u, e};
    }
    graph.max_degree_ =
        std::max(graph.max_degree_, offsets[u + 1] - offsets[u]);
  }
  for (NodeId v = 0; v < n; ++v)
    FDLSP_ASSERT(cursor[v] == offsets[v + 1], "CSR adjacency not symmetric");
  return graph;
}

}  // namespace fdlsp
