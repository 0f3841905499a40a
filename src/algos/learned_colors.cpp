#include "algos/learned_colors.h"

#include "coloring/conflict.h"

namespace fdlsp {

namespace {

/// Scratch of one breadth-first walk to depth 2: the ball's nodes, v first
/// and its neighbors next, and marks for N[v] and N²[v].
struct Ball {
  std::vector<NodeId> nodes;
  EpochMarks near;  // N[v]
  EpochMarks seen;  // N²[v]
};

/// Calls fn(a) once for every arc in R(v) (see the header). An edge with
/// both endpoints inside the ball is emitted from its smaller endpoint
/// only, so no arc is visited twice.
template <typename Fn>
void for_each_readable_arc(const ArcView& view, DistMisVariant variant,
                           NodeId v, Ball& ball, Fn&& fn) {
  const Graph& graph = view.graph();
  if (graph.degree(v) == 0) return;
  ball.nodes.clear();
  ball.near.begin();
  ball.seen.begin();
  ball.nodes.push_back(v);
  ball.near.mark(v);
  ball.seen.mark(v);
  for (const NeighborEntry& entry : graph.neighbors(v)) {
    ball.nodes.push_back(entry.to);
    ball.near.mark(entry.to);
    ball.seen.mark(entry.to);
  }
  const std::size_t ring1 = ball.nodes.size();
  for (std::size_t i = 1; i < ring1; ++i)
    for (const NeighborEntry& entry : graph.neighbors(ball.nodes[i]))
      if (ball.seen.mark_if_new(entry.to)) ball.nodes.push_back(entry.to);

  // Every arc with an endpoint in the inner ball: N²[v] for kGbg, N[v] for
  // kGeneral.
  const bool gbg = variant == DistMisVariant::kGbg;
  const EpochMarks& inner = gbg ? ball.seen : ball.near;
  const std::size_t inner_end = gbg ? ball.nodes.size() : ring1;
  for (std::size_t i = 0; i < inner_end; ++i) {
    const NodeId x = ball.nodes[i];
    for (const NeighborEntry& entry : graph.neighbors(x)) {
      if (entry.to < x && inner.marked(entry.to)) continue;
      const ArcId out = arc_along(x, entry);
      fn(out);
      fn(ArcView::reverse(out));
    }
  }
  if (gbg) return;
  // kGeneral: the out-arcs of distance-2 nodes not already emitted.
  for (std::size_t i = ring1; i < ball.nodes.size(); ++i) {
    const NodeId x = ball.nodes[i];
    for (const NeighborEntry& entry : graph.neighbors(x))
      if (!ball.near.marked(entry.to)) fn(arc_along(x, entry));
  }
}

}  // namespace

LearnedColors::LearnedColors(const ArcView& view, DistMisVariant variant,
                             std::span<const char> holders)
    : view_(view) {
  const std::size_t n = view.graph().num_nodes();
  FDLSP_REQUIRE(holders.empty() || holders.size() == n,
                "holder mask does not match the graph");
  Ball ball;
  ball.near.reserve(n);
  ball.seen.reserve(n);
  // Two walks: the first sizes every region, so each chunk is allocated
  // once at its final size; the second fills in the keys.
  std::vector<std::size_t> slots(n);
  for (NodeId v = 0; v < n; ++v) {
    if (!holders.empty() && holders[v] == 0) continue;
    for_each_readable_arc(view, variant, v, ball, [&](ArcId) { ++slots[v]; });
    slots[v] *= 2;
    capacity_ += slots[v];
  }
  regions_.resize(n);
  for (NodeId v = 0; v < n;) {
    NodeId end = v;  // this chunk holds the regions of [v, end)
    std::size_t size = 0;
    do size += slots[end++];
    while (end < n && size + slots[end] <= kChunkEntries);
    Entry* next = chunks_.emplace_back(size).data();
    for (; v < end; next += slots[v], ++v) regions_[v] = {next, slots[v]};
  }
  for (NodeId v = 0; v < n; ++v) {
    const std::span<Entry> region = regions_[v];
    if (region.empty()) continue;
    for_each_readable_arc(view, variant, v, ball, [&](ArcId a) {
      std::size_t i = home(a, region.size());
      while (region[i].arc != kNoArc)
        if (++i == region.size()) i = 0;
      region[i].arc = a;
    });
  }
  retired_.assign(n, 0);
}

Color LearnedColors::smallest_known_feasible(NodeId v, ArcId a,
                                             EpochMarks& used) const {
  // a conflicts with fewer arcs than the graph has, so the answer is below
  // the arc count. A larger color (a stale one, in repair) cannot change
  // it; leaving it unmarked keeps `used` no longer than the arc count.
  const std::size_t bound = view_.num_arcs();
  used.begin();
  for_each_conflicting_arc(view_, a, [&](ArcId b) {
    const Color c = color(v, b);
    if (c != kNoColor && static_cast<std::size_t>(c) < bound)
      used.mark(static_cast<std::size_t>(c));
  });
  return static_cast<Color>(used.first_unmarked());
}

}  // namespace fdlsp
