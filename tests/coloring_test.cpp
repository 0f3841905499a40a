// Tests for ArcColoring, the feasibility checker, and greedy coloring.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "coloring/checker.h"
#include "coloring/conflict.h"
#include "coloring/conflict_index.h"
#include "coloring/bounds.h"
#include "coloring/greedy.h"
#include "graph/arcs.h"
#include "graph/generators.h"
#include "support/alloc_audit.h"
#include "support/rng.h"
#include "verify/scenario.h"

namespace fdlsp {
namespace {

TEST(ArcColoring, TracksAssignments) {
  ArcColoring coloring(4);
  EXPECT_EQ(coloring.num_arcs(), 4u);
  EXPECT_FALSE(coloring.is_colored(0));
  EXPECT_EQ(coloring.num_colored(), 0u);
  coloring.set(0, 2);
  coloring.set(1, 0);
  EXPECT_TRUE(coloring.is_colored(0));
  EXPECT_EQ(coloring.color(0), 2);
  EXPECT_EQ(coloring.num_colored(), 2u);
  EXPECT_FALSE(coloring.complete());
  coloring.set(2, 2);
  coloring.set(3, 1);
  EXPECT_TRUE(coloring.complete());
  EXPECT_EQ(coloring.num_colors_used(), 3u);
  EXPECT_EQ(coloring.color_span(), 3u);
}

TEST(ArcColoring, ClearAndRecolor) {
  ArcColoring coloring(2);
  coloring.set(0, 5);
  coloring.clear(0);
  EXPECT_FALSE(coloring.is_colored(0));
  EXPECT_EQ(coloring.num_colored(), 0u);
  coloring.set(0, 1);
  EXPECT_EQ(coloring.color(0), 1);
}

TEST(ArcColoring, CountsDistinctColorsWithGaps) {
  ArcColoring coloring(3);
  coloring.set(0, 0);
  coloring.set(1, 5);
  coloring.set(2, 5);
  EXPECT_EQ(coloring.num_colors_used(), 2u);
  EXPECT_EQ(coloring.color_span(), 6u);
}

TEST(Checker, DetectsHiddenTerminalViolation) {
  const Graph path = generate_path(4);
  const ArcView view(path);
  ArcColoring coloring(view.num_arcs());
  coloring.set(view.find_arc(0, 1), 0);
  coloring.set(view.find_arc(2, 3), 0);  // conflicts: 2 adjacent to head 1
  const auto witness = find_violation(view, coloring);
  ASSERT_TRUE(witness.has_value());
  EXPECT_FALSE(is_feasible_schedule(view, coloring));
}

TEST(Checker, AcceptsPartialNonConflicting) {
  const Graph path = generate_path(4);
  const ArcView view(path);
  ArcColoring coloring(view.num_arcs());
  coloring.set(view.find_arc(1, 0), 0);
  coloring.set(view.find_arc(2, 3), 0);  // compatible (tested in conflict_test)
  EXPECT_FALSE(find_violation(view, coloring).has_value());
  EXPECT_FALSE(is_feasible_schedule(view, coloring));  // incomplete
}

/// How a conflicting pair (a, b) meets Definition 2; the first that fits.
enum ConflictKind : std::size_t {
  kSharedTail,    // tail(a) == tail(b)
  kSharedHead,    // head(a) == head(b)
  kHeadIsTail,    // head(a) == tail(b), the reverse arc included
  kTailIsHead,    // tail(a) == head(b)
  kHiddenAtHead,  // no shared node; head(a) adjacent to tail(b)
  kHiddenAtTail,  // no shared node; tail(a) adjacent to head(b)
  kNumKinds,
};

ConflictKind conflict_kind(const ArcView& view, ArcId a, ArcId b) {
  const NodeId ta = view.tail(a), ha = view.head(a);
  const NodeId tb = view.tail(b), hb = view.head(b);
  if (ta == tb) return kSharedTail;
  if (ha == hb) return kSharedHead;
  if (ha == tb) return kHeadIsTail;
  if (ta == hb) return kTailIsHead;
  return view.graph().has_edge(ha, tb) ? kHiddenAtHead : kHiddenAtTail;
}

/// Both checker paths must agree on `coloring`; when `violated`, both must
/// report a same-colored conflicting pair.
void expect_checkers_agree(const ArcView& view, const ConflictIndex& index,
                           const ArcColoring& coloring, bool violated,
                           const std::string& what) {
  const auto plain = find_violation(view, coloring);
  const auto indexed = find_violation(view, coloring, &index);
  EXPECT_EQ(plain.has_value(), violated) << what;
  EXPECT_EQ(indexed.has_value(), violated) << what;
  EXPECT_EQ(count_violations(view, coloring, &index) > 0, violated) << what;
  for (const auto& witness : {plain, indexed}) {
    if (!witness) continue;
    EXPECT_TRUE(arcs_conflict(view, witness->a, witness->b)) << what;
    EXPECT_TRUE(coloring.is_colored(witness->a)) << what;
    EXPECT_EQ(coloring.color(witness->a), coloring.color(witness->b)) << what;
  }
}

TEST(Checker, NodeSweepCatchesEachConflictKindAlone) {
  // Each case starts from a feasible greedy coloring and plants violations
  // of one conflict kind: arc a takes the color of one conflicting arc b;
  // or a and b both take a color no other arc holds, so (a, b) is the only
  // violating pair; and both again with a random half of the other arcs
  // cleared. The unindexed checker (node sweep, then the per-arc witness
  // scan) must agree with the indexed one on every case.
  std::vector<std::pair<std::string, Graph>> instances;
  for (const GraphFamily family : kAllFamilies)
    for (const std::size_t n : {8u, 12u, 24u})
      for (std::uint64_t seed = 1; seed <= 3; ++seed) {
        Scenario scenario;
        scenario.family = family;
        scenario.n = n;
        scenario.density = 0.4;
        scenario.seed = seed;
        instances.emplace_back(
            family_name(family) + " n=" + std::to_string(n) +
                " seed=" + std::to_string(seed),
            materialize(scenario));
      }
  instances.emplace_back("K6", generate_complete(6));

  std::array<std::size_t, kNumKinds> covered{};
  Rng rng(17);
  for (const auto& [name, graph] : instances) {
    const ArcView view(graph);
    const ConflictIndex index(view);
    const ArcColoring feasible = greedy_coloring(view);
    const auto fresh = static_cast<Color>(feasible.color_span());
    expect_checkers_agree(view, index, feasible, false, name);

    const auto thin = [&](ArcColoring coloring, ArcId a, ArcId b) {
      for (ArcId c = 0; c < view.num_arcs(); ++c)
        if (c != a && c != b && rng.next_bool(0.5)) coloring.clear(c);
      return coloring;
    };
    expect_checkers_agree(view, index, thin(feasible, kNoArc, kNoArc), false,
                          name + " partial");

    // Six random arcs per instance (every arc of a smaller one).
    std::vector<ArcId> arcs;
    for (ArcId a = 0; a < view.num_arcs(); ++a) arcs.push_back(a);
    rng.shuffle(arcs);
    arcs.resize(std::min<std::size_t>(arcs.size(), 6));

    for (const ArcId a : arcs) {
      std::array<std::vector<ArcId>, kNumKinds> by_kind;
      for (const ArcId b : conflicting_arcs(view, a))
        by_kind[conflict_kind(view, a, b)].push_back(b);
      for (std::size_t kind = 0; kind < kNumKinds; ++kind) {
        if (by_kind[kind].empty()) continue;
        ++covered[kind];
        const ArcId b = by_kind[kind][rng.next_index(by_kind[kind].size())];
        const std::string what = name + " arcs " + std::to_string(a) + "," +
                                 std::to_string(b) + " kind " +
                                 std::to_string(kind);

        ArcColoring shared = feasible;
        shared.set(a, feasible.color(b));
        expect_checkers_agree(view, index, shared, true, what);
        expect_checkers_agree(view, index, thin(shared, a, b), true,
                              what + " partial");

        ArcColoring alone = feasible;
        alone.set(a, fresh);
        alone.set(b, fresh);
        EXPECT_EQ(count_violations(view, alone, &index), 1u) << what;
        const auto witness = find_violation(view, alone);
        ASSERT_TRUE(witness.has_value()) << what;
        EXPECT_EQ(witness->a, std::min(a, b)) << what;
        EXPECT_EQ(witness->b, std::max(a, b)) << what;
        expect_checkers_agree(view, index, thin(alone, a, b), true,
                              what + " alone, partial");
      }
    }
  }
  for (std::size_t kind = 0; kind < kNumKinds; ++kind)
    EXPECT_GT(covered[kind], 0u) << "kind " << kind;
}

TEST(Checker, HugeColorsAllocateNothingColorSized) {
  // Parsed schedules may carry any non-negative int32 color. Neither
  // checker may size anything by it: marks or buckets keyed by INT32_MAX
  // would ask for gigabytes.
  const Graph grid = generate_grid(4, 4);
  const ArcView view(grid);
  const ConflictIndex index(view);
  ArcColoring coloring = greedy_coloring(view);
  const Color huge = std::numeric_limits<Color>::max();
  const ArcId a = view.find_arc(5, 6);
  coloring.set(a, huge);
  const AllocAuditRegion region;
  EXPECT_FALSE(find_violation(view, coloring).has_value());
  EXPECT_FALSE(find_violation(view, coloring, &index).has_value());
  EXPECT_TRUE(is_feasible_schedule(view, coloring));
  EXPECT_EQ(count_violations(view, coloring, &index), 0u);
  const ArcId b = view.find_arc(6, 7);  // shares node 6 with a
  coloring.set(b, huge);
  const ConflictIndex* const checkers[] = {nullptr, &index};
  for (const ConflictIndex* checked : checkers) {
    const auto witness = find_violation(view, coloring, checked);
    ASSERT_TRUE(witness.has_value());
    EXPECT_EQ(witness->a, std::min(a, b));
    EXPECT_EQ(witness->b, std::max(a, b));
    EXPECT_EQ(count_violations(view, coloring, checked), 1u);
  }
  EXPECT_LT(region.delta().bytes, std::uint64_t{1} << 20);
}

TEST(Checker, WidePaletteKeepsWitnessOrderAndCounts) {
  // Past the arc count the indexed checker groups classes by sorting
  // (color, arc) pairs instead of bucketing by color: classes still come in
  // ascending color order with members in ascending arc order, so it names
  // the same witness and counts the same pairs as with a narrow palette.
  Rng rng(23);
  const Graph graph = generate_gnm(30, 70, rng);
  const ArcView view(graph);
  const ConflictIndex index(view);
  ArcColoring narrow(view.num_arcs());
  ArcColoring wide(view.num_arcs());
  const Color stretch = std::numeric_limits<Color>::max() / 8;
  for (ArcId arc = 0; arc < view.num_arcs(); ++arc) {
    const auto c = static_cast<Color>(rng.next_below(6));
    narrow.set(arc, c);
    wide.set(arc, c * stretch);  // same classes, same color order
  }
  ASSERT_GT(wide.color_span(), view.num_arcs());
  const auto narrow_witness = find_violation(view, narrow, &index);
  const auto wide_witness = find_violation(view, wide, &index);
  ASSERT_TRUE(narrow_witness.has_value());
  ASSERT_TRUE(wide_witness.has_value());
  EXPECT_EQ(wide_witness->a, narrow_witness->a);
  EXPECT_EQ(wide_witness->b, narrow_witness->b);
  EXPECT_EQ(count_violations(view, wide, &index),
            count_violations(view, narrow, &index));
  EXPECT_EQ(count_violations(view, wide, &index),
            count_violations(view, wide));
}

TEST(ArcColoring, HugeColorCountsWithoutColorSizedMemory) {
  // A parsed schedule may carry INT32_MAX; counting its distinct colors
  // must not allocate a bitmap of that many bits.
  const Graph grid = generate_grid(4, 4);
  const ArcView view(grid);
  ArcColoring coloring = greedy_coloring(view);
  const std::size_t used = coloring.num_colors_used();
  coloring.set(view.find_arc(5, 6), std::numeric_limits<Color>::max());
  const AllocAuditRegion region;
  const std::size_t counted = coloring.num_colors_used();
  EXPECT_LT(region.delta().bytes, std::uint64_t{1} << 20);
  // Arc 5->6 either kept its old color on another arc (one new color) or
  // held the only arc of its color (the count stays).
  EXPECT_TRUE(counted == used + 1 || counted == used) << counted;
  std::vector<Color> distinct = coloring.raw();
  std::sort(distinct.begin(), distinct.end());
  EXPECT_EQ(counted, static_cast<std::size_t>(
                         std::unique(distinct.begin(), distinct.end()) -
                         distinct.begin()));
}

TEST(Greedy, SingleEdgeUsesTwoSlots) {
  const Graph graph = generate_path(2);
  const ArcView view(graph);
  const ArcColoring coloring = greedy_coloring(view);
  EXPECT_TRUE(is_feasible_schedule(view, coloring));
  EXPECT_EQ(coloring.num_colors_used(), 2u);
}

TEST(Greedy, TreeUsesExactly2Delta) {
  // Both the ILP and DFS assign 2Δ on trees (Section 8); greedy matches the
  // lower bound on stars.
  const Graph star = generate_star(6);
  const ArcView view(star);
  const ArcColoring coloring = greedy_coloring(view);
  EXPECT_TRUE(is_feasible_schedule(view, coloring));
  EXPECT_EQ(coloring.num_colors_used(), 2 * star.max_degree());
}

TEST(Greedy, FeasibleOnAllOrdersAndGraphs) {
  Rng rng(41);
  for (int trial = 0; trial < 8; ++trial) {
    const Graph graph = generate_gnm(24, 50, rng);
    const ArcView view(graph);
    for (GreedyOrder order : {GreedyOrder::kArcId, GreedyOrder::kByDegreeDesc,
                              GreedyOrder::kRandom}) {
      Rng order_rng(7);
      const ArcColoring coloring = greedy_coloring(view, order, &order_rng);
      EXPECT_TRUE(is_feasible_schedule(view, coloring));
      EXPECT_LE(coloring.num_colors_used(), upper_bound_colors(graph));
      EXPECT_GE(coloring.num_colors_used(), lower_bound_trivial(graph));
    }
  }
}

TEST(Greedy, InOrderRejectsPartialOrders) {
  const Graph graph = generate_path(3);
  const ArcView view(graph);
  EXPECT_THROW(greedy_coloring_in_order(view, {0, 1}), contract_error);
  EXPECT_THROW(greedy_coloring_in_order(view, {0, 0, 1, 2}), contract_error);
}

TEST(Greedy, EvenCycleUsesFourColors) {
  // Section 3 note: even cycles need exactly 4 colors.
  const Graph cycle = generate_cycle(8);
  const ArcView view(cycle);
  const ArcColoring coloring = greedy_coloring(view);
  EXPECT_TRUE(is_feasible_schedule(view, coloring));
  EXPECT_GE(coloring.num_colors_used(), 4u);
  EXPECT_LE(coloring.num_colors_used(), upper_bound_colors(cycle));
}

TEST(Greedy, CompleteGraphNeedsAllSlots) {
  // Section 3 note: complete graphs need Δ² + Δ slots (one per arc).
  const Graph complete = generate_complete(4);
  const ArcView view(complete);
  const ArcColoring coloring = greedy_coloring(view);
  EXPECT_TRUE(is_feasible_schedule(view, coloring));
  const std::size_t delta = complete.max_degree();
  EXPECT_EQ(coloring.num_colors_used(), delta * delta + delta);
}

}  // namespace
}  // namespace fdlsp
