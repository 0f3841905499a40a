// ConflictIndex: the distance-2 conflict relation (Definition 2),
// materialized once per graph as a CSR adjacency.
//
// Every component of the library — checker, greedy/exact colorers, Lemma-6
// conflict graph, repair, the ILP builder, the verify oracles — reduces to
// "which arcs conflict with arc a?". Enumerating that on the fly
// (conflict.h) visits each conflicting arc several times and pays an
// alloc + sort + unique per query. The index pays that cost exactly once:
//
//   offsets_[a] .. offsets_[a+1]  ->  sorted, duplicate-free ArcIds
//
// Row a never contains a itself. By Lemma 6 a row holds fewer than
// min(2Δ², 2m − 1) entries, which bounds both the scratch buffers used
// during construction and the total index size (≤ 2m · 2Δ²).
//
// Construction is a two-pass count-then-fill over the arcs, optionally
// fanned across a ThreadPool. Each row depends only on its own arc, so the
// result is byte-identical for every thread count, including the sequential
// build — the determinism tests assert this.
//
// On top of the CSR sits ConflictScratch: an epoch-stamped, allocation-free
// (after warm-up) kernel for the greedy primitive smallest_feasible_color —
// no per-call sort, no per-call vector. The checker's palette-bitset sweep
// (checker.cpp) is the other index-backed kernel.
//
// When to prebuild: any workload that queries conflicts of many arcs on one
// graph (full colorings, repeated feasibility checks, conflict-graph
// construction, ILP assembly, the oracle battery). When not to: the
// distributed algorithms' node programs, whose message-complexity accounting
// models each node discovering its distance-2 neighborhood over the radio —
// they keep the on-the-fly enumeration so the round/message counts stay
// faithful; D-MGC, whose color classes are matchings and so constrain each
// other only through endpoint adjacency (dmgc.cpp); and a one-off
// feasibility check, whose unindexed node sweep (checker.cpp) costs
// O(Σ deg(v)²), a factor of Δ below building the index.
#pragma once

#include <span>
#include <vector>

#include "coloring/coloring.h"
#include "graph/arcs.h"
#include "graph/types.h"
#include "support/epoch_marks.h"

namespace fdlsp {

class ThreadPool;

/// Immutable CSR of the distance-2 arc-conflict relation of one graph.
class ConflictIndex {
 public:
  /// Sequential build.
  explicit ConflictIndex(const ArcView& view);

  /// Parallel build over `pool`; output is byte-identical to the sequential
  /// build for any pool size.
  ConflictIndex(const ArcView& view, ThreadPool& pool);

  /// Incremental rebuild after a local topology change (the soak driver's
  /// per-event path). `old_index` must be the index of `old_graph`; `view`
  /// is over the new graph on the same node universe; `touched` must list
  /// both endpoints of every edge present in exactly one of the two graphs.
  ///
  /// A conflict (shared endpoint or hidden-terminal mediation) can only
  /// appear or vanish for arcs with an endpoint within distance 1 of a
  /// changed-edge endpoint, so rows of arcs whose endpoints lie outside the
  /// distance-2 ball of `touched` (in the union of old and new adjacency)
  /// are copied and edge-id-remapped; only the ball is re-enumerated. The
  /// remap is strictly monotone (both edge lists sort lexicographically),
  /// so copied rows stay sorted. Byte-identical to a fresh build — the
  /// soaktest suite asserts this on every event of a churn stream.
  ConflictIndex(const ArcView& view, const Graph& old_graph,
                const ConflictIndex& old_index,
                std::span<const NodeId> touched);

  /// Number of arcs indexed (2m).
  std::size_t num_arcs() const noexcept { return offsets_.size() - 1; }

  /// Sorted, duplicate-free arcs conflicting with a (a itself excluded).
  std::span<const ArcId> conflicts(ArcId a) const {
    FDLSP_ASSERT(a < num_arcs(), "arc out of range");
    return {neighbors_.data() + offsets_[a], offsets_[a + 1] - offsets_[a]};
  }

  /// Row size of arc a — its degree in the Lemma-6 conflict graph.
  std::size_t conflict_degree(ArcId a) const {
    FDLSP_ASSERT(a < num_arcs(), "arc out of range");
    return offsets_[a + 1] - offsets_[a];
  }

  /// Largest row size (max degree of the conflict graph), 0 when empty.
  std::size_t max_conflict_degree() const noexcept { return max_degree_; }

  /// Sum of all row sizes = 2 × (edges of the Lemma-6 conflict graph).
  std::size_t total_conflicts() const noexcept { return neighbors_.size(); }

  /// Raw CSR arrays, exposed so tests can assert byte-identical builds.
  const std::vector<std::size_t>& raw_offsets() const noexcept {
    return offsets_;
  }
  const std::vector<ArcId>& raw_neighbors() const noexcept {
    return neighbors_;
  }

 private:
  void build(const ArcView& view, ThreadPool* pool);

  std::vector<std::size_t> offsets_;  // num_arcs + 1 entries
  std::vector<ArcId> neighbors_;      // sorted within each row
  std::size_t max_degree_ = 0;
};

/// Reusable, allocation-free (after warm-up) kernels over a prebuilt index.
/// Not thread-safe: give each worker its own scratch.
class ConflictScratch {
 public:
  explicit ConflictScratch(const ConflictIndex& index) : index_(&index) {}

  /// Smallest color >= 0 unused by any colored arc conflicting with a.
  /// Identical to smallest_feasible_color(view, coloring, a), but a single
  /// epoch-stamped sweep of the CSR row: no re-enumeration, no sort.
  Color smallest_feasible_color(const ArcColoring& coloring, ArcId a) {
    used_.begin();
    for (const ArcId b : index_->conflicts(a)) {
      const Color c = coloring.color(b);
      if (c != kNoColor) used_.mark(static_cast<std::size_t>(c));
    }
    return static_cast<Color>(used_.first_unmarked());
  }

  const ConflictIndex& index() const noexcept { return *index_; }

 private:
  const ConflictIndex* index_;
  EpochMarks used_;
};

}  // namespace fdlsp
