#include "coloring/conflict_index.h"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <limits>

#include "coloring/conflict.h"
#include "support/parallel_for.h"
#include "support/thread_pool.h"

namespace fdlsp {

namespace {

/// Per-worker row generator. The raw enumeration emits duplicates; instead
/// of sort+unique (which dominates the build — measured ~9x the enumeration
/// itself), conflicts are marked in an arc bitset and the touched word range
/// is swept once, which yields the row already sorted and deduplicated and
/// zeroes the bitset for the next row in the same sweep.
struct RowScratch {
  std::vector<std::uint64_t> bits;  // one bit per arc, zero between rows
  std::vector<ArcId> row;           // sorted deduplicated output

  void prepare(std::size_t words, std::size_t row_bound) {
    if (bits.size() < words) bits.resize(words, 0);
    row.reserve(row_bound);
  }

  void fill(const ArcView& view, ArcId a) {
    row.clear();
    ArcId lo = std::numeric_limits<ArcId>::max();
    ArcId hi = 0;
    for_each_conflicting_arc(view, a, [&](ArcId b) {
      bits[b >> 6] |= std::uint64_t{1} << (b & 63u);
      lo = std::min(lo, b);
      hi = std::max(hi, b);
    });
    if (lo > hi) return;  // isolated arc: no conflicts
    for (std::size_t w = lo >> 6; w <= (hi >> 6); ++w) {
      std::uint64_t word = bits[w];
      bits[w] = 0;
      while (word != 0) {
        const auto bit = static_cast<std::size_t>(std::countr_zero(word));
        row.push_back(static_cast<ArcId>((w << 6) | bit));
        word &= word - 1;
      }
    }
  }
};

/// Runs row_fn(arc, scratch) for every arc, sequentially or across the pool.
/// Each invocation depends only on its own arc, so the parallel schedule
/// cannot influence results; the scratch is reused per worker to keep the
/// bitset and row buffer warm (the latter sized by the Lemma-6 row bound).
template <typename RowFn>
void for_each_arc(ThreadPool* pool, std::size_t num_arcs, std::size_t words,
                  std::size_t row_bound, RowFn row_fn) {
  if (pool == nullptr) {
    RowScratch scratch;
    scratch.prepare(words, row_bound);
    for (std::size_t a = 0; a < num_arcs; ++a) row_fn(a, scratch);
    return;
  }
  parallel_for(*pool, num_arcs, [&](std::size_t a) {
    thread_local RowScratch scratch;
    scratch.prepare(words, row_bound);
    row_fn(a, scratch);
  });
}

}  // namespace

ConflictIndex::ConflictIndex(const ArcView& view) { build(view, nullptr); }

ConflictIndex::ConflictIndex(const ArcView& view, ThreadPool& pool) {
  build(view, &pool);
}

ConflictIndex::ConflictIndex(const ArcView& view, const Graph& old_graph,
                             const ConflictIndex& old_index,
                             std::span<const NodeId> touched) {
  const Graph& new_graph = view.graph();
  const std::size_t num_nodes = new_graph.num_nodes();
  FDLSP_REQUIRE(old_graph.num_nodes() == num_nodes,
                "incremental update requires a fixed node universe");
  FDLSP_REQUIRE(old_index.num_arcs() == 2 * old_graph.num_edges(),
                "stale index does not match the old graph");

  const std::size_t n = view.num_arcs();
  offsets_.assign(n + 1, 0);
  if (n == 0) return;

  // Dirty ball: nodes within distance <= 2 of a touched node in the union
  // of old and new adjacency (see the header comment for why 2 suffices).
  std::vector<char> dirty(num_nodes, 0);
  std::vector<NodeId> frontier;
  for (const NodeId v : touched) {
    FDLSP_REQUIRE(v < num_nodes, "touched node out of range");
    if (!dirty[v]) {
      dirty[v] = 1;
      frontier.push_back(v);
    }
  }
  std::vector<NodeId> next;
  for (int hop = 0; hop < 2; ++hop) {
    next.clear();
    for (const NodeId v : frontier) {
      const auto visit = [&](NodeId w) {
        if (!dirty[w]) {
          dirty[w] = 1;
          next.push_back(w);
        }
      };
      for (const NeighborEntry& entry : old_graph.neighbors(v))
        visit(entry.to);
      for (const NeighborEntry& entry : new_graph.neighbors(v))
        visit(entry.to);
    }
    std::swap(frontier, next);
  }

  // Edge-id maps between the two graphs. Clean rows may reference arcs over
  // dirty-but-surviving edges, so the old->new map covers every survivor,
  // not just the clean ones. Both edge lists sort lexicographically on
  // (u, v) and survivors keep their relative order, so the map is strictly
  // monotone and remapped rows stay sorted.
  std::vector<EdgeId> new_edge_of_old(old_graph.num_edges(), kNoEdge);
  std::vector<EdgeId> old_edge_of_new(new_graph.num_edges(), kNoEdge);
  std::vector<char> edge_dirty(new_graph.num_edges(), 0);
  for (std::size_t e = 0; e < new_graph.num_edges(); ++e) {
    const Edge& edge = new_graph.edge(static_cast<EdgeId>(e));
    edge_dirty[e] = (dirty[edge.u] || dirty[edge.v]) ? 1 : 0;
    const EdgeId old = old_graph.find_edge(edge.u, edge.v);
    if (old != kNoEdge) {
      new_edge_of_old[old] = static_cast<EdgeId>(e);
      old_edge_of_new[e] = old;
    } else {
      FDLSP_ASSERT(edge_dirty[e], "clean edge missing from the old graph");
    }
  }

  const std::size_t delta = new_graph.max_degree();
  const std::size_t row_bound = std::min(n - 1, 2 * delta * delta);
  const std::size_t words = (n + 63) / 64;
  RowScratch scratch;
  scratch.prepare(words, row_bound);

  // Pass 1 (count): copied sizes for clean arcs, regenerated for dirty.
  for (std::size_t a = 0; a < n; ++a) {
    if (edge_dirty[a >> 1]) {
      scratch.fill(view, static_cast<ArcId>(a));
      offsets_[a + 1] = scratch.row.size();
    } else {
      const EdgeId old_e = old_edge_of_new[a >> 1];
      const auto old_a = static_cast<ArcId>((old_e << 1) | (a & 1));
      offsets_[a + 1] = old_index.conflict_degree(old_a);
    }
  }
  for (std::size_t a = 0; a < n; ++a) {
    max_degree_ = std::max(max_degree_, offsets_[a + 1]);
    offsets_[a + 1] += offsets_[a];
  }

  // Pass 2 (fill): remap-copy clean rows, regenerate dirty ones.
  neighbors_.resize(offsets_[n]);
  for (std::size_t a = 0; a < n; ++a) {
    auto out = neighbors_.begin() + static_cast<std::ptrdiff_t>(offsets_[a]);
    if (edge_dirty[a >> 1]) {
      scratch.fill(view, static_cast<ArcId>(a));
      std::copy(scratch.row.begin(), scratch.row.end(), out);
    } else {
      const EdgeId old_e = old_edge_of_new[a >> 1];
      const auto old_a = static_cast<ArcId>((old_e << 1) | (a & 1));
      for (const ArcId b_old : old_index.conflicts(old_a)) {
        const EdgeId mapped = new_edge_of_old[b_old >> 1];
        FDLSP_ASSERT(mapped != kNoEdge, "clean row references a removed edge");
        *out++ = static_cast<ArcId>((mapped << 1) | (b_old & 1));
      }
    }
  }
}

void ConflictIndex::build(const ArcView& view, ThreadPool* pool) {
  const std::size_t n = view.num_arcs();
  offsets_.assign(n + 1, 0);
  if (n == 0) return;

  // Lemma 6: an arc conflicts with fewer than min(2Δ², 2m − 1) others.
  const std::size_t delta = view.graph().max_degree();
  const std::size_t row_bound = std::min(n - 1, 2 * delta * delta);
  const std::size_t words = (n + 63) / 64;

  // Pass 1 (count): deduplicated row size per arc. Rows land in disjoint
  // slots of offsets_, so the parallel writes never alias.
  for_each_arc(pool, n, words, row_bound,
               [&](std::size_t a, RowScratch& scratch) {
                 scratch.fill(view, static_cast<ArcId>(a));
                 offsets_[a + 1] = scratch.row.size();
               });

  for (std::size_t a = 0; a < n; ++a) {
    max_degree_ = std::max(max_degree_, offsets_[a + 1]);
    offsets_[a + 1] += offsets_[a];
  }

  // Pass 2 (fill): regenerate each row straight into its CSR slice.
  neighbors_.resize(offsets_[n]);
  for_each_arc(pool, n, words, row_bound,
               [&](std::size_t a, RowScratch& scratch) {
                 scratch.fill(view, static_cast<ArcId>(a));
                 std::copy(scratch.row.begin(), scratch.row.end(),
                           neighbors_.begin() +
                               static_cast<std::ptrdiff_t>(offsets_[a]));
               });
}

}  // namespace fdlsp
