#include "graph/algorithms.h"

#include <algorithm>
#include <deque>
#include <utility>

#include "support/check.h"

namespace fdlsp {

std::vector<std::size_t> bfs_distances(const Graph& graph, NodeId source) {
  FDLSP_REQUIRE(source < graph.num_nodes(), "source out of range");
  std::vector<std::size_t> dist(graph.num_nodes(), kUnreachable);
  std::deque<NodeId> frontier{source};
  dist[source] = 0;
  while (!frontier.empty()) {
    const NodeId v = frontier.front();
    frontier.pop_front();
    for (const NeighborEntry& entry : graph.neighbors(v)) {
      if (dist[entry.to] == kUnreachable) {
        dist[entry.to] = dist[v] + 1;
        frontier.push_back(entry.to);
      }
    }
  }
  return dist;
}

bool is_connected(const Graph& graph) {
  if (graph.num_nodes() <= 1) return true;
  const auto dist = bfs_distances(graph, 0);
  return std::none_of(dist.begin(), dist.end(),
                      [](std::size_t d) { return d == kUnreachable; });
}

std::vector<std::size_t> connected_components(const Graph& graph) {
  std::vector<std::size_t> label(graph.num_nodes(), kUnreachable);
  std::size_t next = 0;
  std::deque<NodeId> frontier;
  for (NodeId start = 0; start < graph.num_nodes(); ++start) {
    if (label[start] != kUnreachable) continue;
    label[start] = next;
    frontier.push_back(start);
    while (!frontier.empty()) {
      const NodeId v = frontier.front();
      frontier.pop_front();
      for (const NeighborEntry& entry : graph.neighbors(v)) {
        if (label[entry.to] == kUnreachable) {
          label[entry.to] = next;
          frontier.push_back(entry.to);
        }
      }
    }
    ++next;
  }
  return label;
}

std::size_t count_components(const Graph& graph) {
  const auto label = connected_components(graph);
  return label.empty() ? 0 : *std::max_element(label.begin(), label.end()) + 1;
}

std::vector<NodeId> largest_component(const Graph& graph) {
  const auto label = connected_components(graph);
  const std::size_t components =
      label.empty() ? 0 : *std::max_element(label.begin(), label.end()) + 1;
  std::vector<std::size_t> sizes(components, 0);
  for (std::size_t l : label) ++sizes[l];
  const std::size_t best = static_cast<std::size_t>(
      std::max_element(sizes.begin(), sizes.end()) - sizes.begin());
  std::vector<NodeId> nodes;
  for (NodeId v = 0; v < graph.num_nodes(); ++v)
    if (label[v] == best) nodes.push_back(v);
  return nodes;
}

InducedSubgraph induced_subgraph(const Graph& graph,
                                 const std::vector<NodeId>& nodes) {
  InducedSubgraph result;
  result.to_sub.assign(graph.num_nodes(), kNoNode);
  result.to_original = nodes;
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    FDLSP_REQUIRE(nodes[i] < graph.num_nodes(), "node out of range");
    FDLSP_REQUIRE(result.to_sub[nodes[i]] == kNoNode, "duplicate node");
    result.to_sub[nodes[i]] = static_cast<NodeId>(i);
  }
  GraphBuilder builder(nodes.size());
  for (const Edge& e : graph.edges()) {
    const NodeId u = result.to_sub[e.u];
    const NodeId v = result.to_sub[e.v];
    if (u != kNoNode && v != kNoNode) builder.add_edge(u, v);
  }
  result.graph = builder.build();
  return result;
}

std::vector<NodeId> k_hop_neighborhood(const Graph& graph, NodeId v,
                                       std::size_t radius) {
  FDLSP_REQUIRE(v < graph.num_nodes(), "node out of range");
  std::vector<std::size_t> dist(graph.num_nodes(), kUnreachable);
  std::deque<NodeId> frontier{v};
  dist[v] = 0;
  std::vector<NodeId> result;
  while (!frontier.empty()) {
    const NodeId u = frontier.front();
    frontier.pop_front();
    if (dist[u] == radius) continue;
    for (const NeighborEntry& entry : graph.neighbors(u)) {
      if (dist[entry.to] == kUnreachable) {
        dist[entry.to] = dist[u] + 1;
        result.push_back(entry.to);
        frontier.push_back(entry.to);
      }
    }
  }
  std::sort(result.begin(), result.end());
  return result;
}

std::vector<char> hop_ball(const Graph& graph,
                           std::span<const NodeId> sources,
                           std::size_t radius) {
  std::vector<char> in_ball(graph.num_nodes(), 0);
  std::vector<NodeId> frontier;
  for (const NodeId v : sources) {
    FDLSP_REQUIRE(v < graph.num_nodes(), "node out of range");
    if (in_ball[v] == 0) {
      in_ball[v] = 1;
      frontier.push_back(v);
    }
  }
  std::vector<NodeId> next;
  for (std::size_t hop = 0; hop < radius && !frontier.empty(); ++hop) {
    next.clear();
    for (const NodeId v : frontier) {
      for (const NeighborEntry& entry : graph.neighbors(v)) {
        if (in_ball[entry.to] == 0) {
          in_ball[entry.to] = 1;
          next.push_back(entry.to);
        }
      }
    }
    std::swap(frontier, next);
  }
  return in_ball;
}

std::vector<NodeId> common_neighbors(const Graph& graph, NodeId u, NodeId v) {
  const auto a = graph.neighbors(u);
  const auto b = graph.neighbors(v);
  std::vector<NodeId> result;
  auto ia = a.begin();
  auto ib = b.begin();
  while (ia != a.end() && ib != b.end()) {
    if (ia->to < ib->to) {
      ++ia;
    } else if (ib->to < ia->to) {
      ++ib;
    } else {
      result.push_back(ia->to);
      ++ia;
      ++ib;
    }
  }
  return result;
}

std::size_t count_triangles(const Graph& graph) {
  // Each triangle {a < b < c} is counted once at its lexicographically
  // smallest edge {a, b}.
  std::size_t triangles = 0;
  for (const Edge& e : graph.edges())
    for (NodeId w : common_neighbors(graph, e.u, e.v))
      if (w > e.v) ++triangles;
  return triangles;
}

std::size_t diameter(const Graph& graph) {
  std::size_t best = 0;
  for (NodeId v = 0; v < graph.num_nodes(); ++v) {
    const auto dist = bfs_distances(graph, v);
    for (std::size_t d : dist) {
      if (d == kUnreachable) return kUnreachable;
      best = std::max(best, d);
    }
  }
  return best;
}

}  // namespace fdlsp
