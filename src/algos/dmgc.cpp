#include "algos/dmgc.h"

#include <algorithm>
#include <cstdint>
#include <limits>
#include <numeric>
#include <span>
#include <vector>

#include "algos/misra_gries.h"
#include "algos/two_sat.h"
#include "coloring/conflict.h"
#include "graph/arcs.h"
#include "support/check.h"

namespace fdlsp {

namespace {

constexpr std::uint32_t kNone = std::numeric_limits<std::uint32_t>::max();

/// Arc for edge e under orientation flag (true = stored direction u -> v).
ArcId oriented_arc(EdgeId e, bool stored_direction) {
  return static_cast<ArcId>((e << 1) | (stored_direction ? 0u : 1u));
}

/// Two members i < j of one class (positions in it) whose orientations
/// constrain each other. Bit (oi << 1) | oj of `forbidden` is set iff
/// orienting i by oi and j by oj (0 = stored direction) puts two
/// conflicting arcs in one slot; at least one bit is set.
struct MemberPair {
  std::uint32_t i;
  std::uint32_t j;
  std::uint32_t forbidden;
};

/// Forbidden orientations of two class members from their endpoint
/// adjacency: bit (p << 1) | q of `adjacent` says endpoint p of i is adjacent
/// to endpoint q of j (0 = u, 1 = v). Matching edges share no endpoint, so
/// their arcs conflict only when one's head is adjacent to the other's tail;
/// orientation o puts the tail on endpoint o and the head on 1 - o.
std::uint32_t forbidden_orientations(std::uint32_t adjacent) {
  const auto adj = [&](std::uint32_t p, std::uint32_t q) {
    return ((adjacent >> ((p << 1) | q)) & 1u) != 0;
  };
  std::uint32_t forbidden = 0;
  for (std::uint32_t oi = 0; oi < 2; ++oi)
    for (std::uint32_t oj = 0; oj < 2; ++oj)
      if (adj(1 - oi, oj) || adj(oi, 1 - oj))
        forbidden |= 1u << ((oi << 1) | oj);
  return forbidden;
}

/// Per-run scratch of the direction assignment, reused across classes.
struct OrientScratch {
  explicit OrientScratch(std::size_t num_nodes) : owner(num_nodes, kNone) {}

  std::vector<std::uint32_t> owner;     // node -> (member << 1) | endpoint
  std::vector<std::uint32_t> adjacent;  // member -> bits toward the scanned one
  std::vector<std::uint32_t> partners;  // members the scanned one touches
  std::vector<MemberPair> pairs;        // sorted by (i, j)
  std::vector<std::uint32_t> position;  // member -> variable, kNone if shed
  std::vector<std::uint32_t> live;      // unshed members, ascending
  std::vector<std::size_t> constraint_count;
};

/// Fills s.pairs with every constrained pair of `members` in (i, j) order.
/// Each member walks its endpoints' adjacency rows and maps every neighbor
/// to the member it is an endpoint of, so a class costs the degree sum of
/// its endpoints, not a conflict probe per pair of members.
void collect_pairs(const Graph& graph, std::span<const EdgeId> members,
                   OrientScratch& s) {
  const auto k = static_cast<std::uint32_t>(members.size());
  for (std::uint32_t l = 0; l < k; ++l) {
    const Edge& e = graph.edge(members[l]);
    FDLSP_ASSERT(s.owner[e.u] == kNone && s.owner[e.v] == kNone,
                 "a color class is a matching");
    s.owner[e.u] = l << 1;
    s.owner[e.v] = (l << 1) | 1u;
  }
  s.adjacent.assign(k, 0);
  s.pairs.clear();
  for (std::uint32_t i = 0; i < k; ++i) {
    const Edge& e = graph.edge(members[i]);
    for (const std::uint32_t p : {0u, 1u}) {
      for (const NeighborEntry& entry : graph.neighbors(p == 0 ? e.u : e.v)) {
        const std::uint32_t owner = s.owner[entry.to];
        if (owner == kNone || (owner >> 1) <= i) continue;
        const std::uint32_t j = owner >> 1;
        FDLSP_ASSERT(j < k, "owner out of range");
        if (s.adjacent[j] == 0) s.partners.push_back(j);
        s.adjacent[j] |= 1u << ((p << 1) | (owner & 1u));
      }
    }
    std::sort(s.partners.begin(), s.partners.end());
    for (const std::uint32_t j : s.partners) {
      s.pairs.push_back({i, j, forbidden_orientations(s.adjacent[j])});
      s.adjacent[j] = 0;
    }
    s.partners.clear();
  }
  for (const EdgeId member : members) {
    const Edge& e = graph.edge(member);
    s.owner[e.u] = s.owner[e.v] = kNone;
  }
}

/// Tries to orient all edges of one class via 2-SAT, shedding the most
/// constrained edges on failure. Shed edges are appended to `leftover`; the
/// kept members are left in s.live, and entry k of the result is true iff
/// members[s.live[k]] keeps its stored (u -> v) direction. The pairs are
/// collected once; each attempt replays them over the members not yet shed.
std::vector<bool> orient_class(const Graph& graph,
                               const std::vector<EdgeId>& members,
                               OrientScratch& s,
                               std::vector<EdgeId>& leftover) {
  collect_pairs(graph, members, s);
  s.live.resize(members.size());
  std::iota(s.live.begin(), s.live.end(), 0u);
  s.position.assign(s.live.begin(), s.live.end());
  const auto unshed = [&](const MemberPair& pair) {
    return s.position[pair.i] != kNone && s.position[pair.j] != kNone;
  };

  for (;;) {
    // Constrained pairs per member. The scan stops after the first row that
    // holds a pair with every orientation forbidden.
    s.constraint_count.assign(s.live.size(), 0);
    bool trivially_infeasible = false;
    std::uint32_t row = 0;
    for (const MemberPair& pair : s.pairs) {
      if (!unshed(pair)) continue;
      if (trivially_infeasible && pair.i != row) break;
      row = pair.i;
      ++s.constraint_count[s.position[pair.i]];
      ++s.constraint_count[s.position[pair.j]];
      if (pair.forbidden == 0xFu) trivially_infeasible = true;
    }

    if (!trivially_infeasible) {
      TwoSat sat(s.live.size());
      for (const MemberPair& pair : s.pairs) {
        if (!unshed(pair)) continue;
        for (std::uint32_t bit = 0; bit < 4; ++bit) {
          // Forbid (x_i == (oi==0)) AND (x_j == (oj==0)).
          if ((pair.forbidden >> bit) & 1u)
            sat.add_clause(s.position[pair.i], (bit >> 1) != 0,
                           s.position[pair.j], (bit & 1u) != 0);
        }
      }
      if (auto assignment = sat.solve()) return std::move(*assignment);
    }

    // Injection: shed the edge involved in the most constrained pairs.
    FDLSP_REQUIRE(!s.live.empty(), "cannot orient an empty class");
    const auto worst = static_cast<std::size_t>(
        std::max_element(s.constraint_count.begin(),
                         s.constraint_count.end()) -
        s.constraint_count.begin());
    leftover.push_back(members[s.live[worst]]);
    s.position[s.live[worst]] = kNone;
    s.live.erase(s.live.begin() + static_cast<std::ptrdiff_t>(worst));
    for (std::size_t v = worst; v < s.live.size(); ++v)
      s.position[s.live[v]] = static_cast<std::uint32_t>(v);
  }
}

}  // namespace

ScheduleResult run_dmgc(const Graph& graph, DmgcStats* stats) {
  const ArcView view(graph);
  ScheduleResult result;
  result.coloring = ArcColoring(view.num_arcs());
  DmgcStats local;

  if (graph.num_edges() == 0) {
    if (stats) *stats = local;
    return result;
  }

  // Phase 1: (Δ+1) edge coloring.
  MisraGriesStats mg_stats;
  const std::vector<Color> edge_colors =
      misra_gries_edge_coloring(graph, &mg_stats);
  local.edge_colors = mg_stats.colors_used;

  std::size_t num_classes = 0;
  for (Color c : edge_colors)
    num_classes =
        std::max(num_classes, static_cast<std::size_t>(c) + 1);

  std::vector<std::vector<EdgeId>> classes(num_classes);
  for (EdgeId e = 0; e < graph.num_edges(); ++e)
    classes[static_cast<std::size_t>(edge_colors[e])].push_back(e);

  // Phase 2: orient every class; forward orientation of class i -> slot i,
  // mirrored orientation -> slot num_classes + i.
  OrientScratch scratch(graph.num_nodes());
  std::vector<EdgeId> leftover;
  for (std::size_t i = 0; i < num_classes; ++i) {
    const std::vector<bool> orientation =
        orient_class(graph, classes[i], scratch, leftover);
    for (std::size_t k = 0; k < orientation.size(); ++k) {
      const ArcId forward =
          oriented_arc(classes[i][scratch.live[k]], orientation[k]);
      result.coloring.set(forward, static_cast<Color>(i));
      result.coloring.set(ArcView::reverse(forward),
                          static_cast<Color>(num_classes + i));
    }
  }
  local.injected_edges = leftover.size();

  // Injected edges: both arcs greedily recolored (extra slots as needed).
  for (EdgeId e : leftover) {
    for (ArcId a : {oriented_arc(e, true), oriented_arc(e, false)})
      result.coloring.set(a, smallest_feasible_color(view, result.coloring, a));
  }

  // Analytic distributed round model (for reporting only): phase 1 costs a
  // round per edge-coloring step plus the inverted cd-path lengths; phase 2
  // costs one DFS over the graph per color class.
  local.estimated_rounds = graph.num_edges() + mg_stats.total_path_length +
                           num_classes * graph.num_nodes();

  result.num_slots = result.coloring.num_colors_used();
  result.rounds = local.estimated_rounds;
  result.messages = 0;
  if (stats) *stats = local;
  return result;
}

}  // namespace fdlsp
