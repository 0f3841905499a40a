// FaultPlan unit tests: decision determinism, bounded loss, crash/churn
// schedules, payload-size-preserving corruption, spec round-tripping, and
// the zero-fault byte-identity guarantee of the injection seam.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "algos/scheduler.h"
#include "graph/generators.h"
#include "graph/graph.h"
#include "sim/fault.h"
#include "support/check.h"
#include "support/rng.h"

namespace fdlsp {
namespace {

Graph test_graph() {
  Rng rng(5);
  return generate_gnm(12, 20, rng);
}

TEST(FaultPlanTest, DecisionsAreDeterministic) {
  const Graph graph = test_graph();
  FaultSpec spec;
  spec.seed = 42;
  spec.drop_rate = 0.2;
  spec.duplicate_rate = 0.1;
  spec.corrupt_rate = 0.1;
  spec.crash_fraction = 0.25;
  spec.link_down_fraction = 0.25;

  FaultPlan a(spec, graph);
  FaultPlan b(spec, graph);
  for (ArcId channel = 0; channel < 2 * graph.num_edges(); ++channel)
    for (std::uint64_t index = 0; index < 50; ++index)
      ASSERT_EQ(a.channel_action(channel, index),
                b.channel_action(channel, index))
          << "channel " << channel << " index " << index;
  EXPECT_EQ(a.crashed_nodes(), b.crashed_nodes());
  EXPECT_EQ(a.churned_edges(), b.churned_edges());
}

TEST(FaultPlanTest, SeedChangesDecisions) {
  const Graph graph = test_graph();
  FaultSpec spec;
  spec.drop_rate = 0.5;
  spec.seed = 1;
  FaultPlan a(spec, graph);
  spec.seed = 2;
  FaultPlan b(spec, graph);
  bool differs = false;
  for (ArcId channel = 0; channel < 2 * graph.num_edges() && !differs;
       ++channel)
    for (std::uint64_t index = 0; index < 20 && !differs; ++index)
      differs = a.channel_action(channel, index) !=
                b.channel_action(channel, index);
  EXPECT_TRUE(differs);
}

TEST(FaultPlanTest, LossIsBoundedPerChannel) {
  const Graph graph = test_graph();
  FaultSpec spec;
  spec.drop_rate = 1.0;  // every message would drop, absent the cap
  spec.max_losses_per_channel = 3;
  FaultPlan plan(spec, graph);
  std::uint64_t drops = 0;
  for (std::uint64_t index = 0; index < 100; ++index)
    if (plan.channel_action(/*channel=*/0, index) == FaultAction::kDrop)
      ++drops;
  EXPECT_EQ(drops, 3u);
  // Once the cap is hit the channel is lossless forever.
  EXPECT_EQ(plan.channel_action(0, 100), FaultAction::kDeliver);
  // Other channels have their own budget.
  EXPECT_EQ(plan.channel_action(1, 0), FaultAction::kDrop);
}

TEST(FaultPlanTest, CorruptionPreservesPayloadSize) {
  const Graph graph = test_graph();
  FaultSpec spec;
  spec.corrupt_rate = 1.0;
  FaultPlan plan(spec, graph);

  Message message;
  message.tag = 7;
  message.data = {1, 2, 3};
  Message corrupted = message;
  plan.corrupt_payload(/*channel=*/0, /*message_index=*/0, corrupted);
  EXPECT_EQ(corrupted.data.size(), message.data.size());
  EXPECT_TRUE(corrupted.tag != message.tag || corrupted.data != message.data);

  Message empty;
  empty.tag = 7;
  Message empty_corrupted = empty;
  plan.corrupt_payload(0, 0, empty_corrupted);
  EXPECT_TRUE(empty_corrupted.data.empty());
  EXPECT_NE(empty_corrupted.tag, empty.tag);  // the tag takes the flip
}

TEST(FaultPlanTest, CrashScheduleMatchesFraction) {
  Rng rng(9);
  const Graph graph = generate_gnm(40, 60, rng);
  FaultSpec all;
  all.crash_fraction = 1.0;
  const FaultPlan everyone(all, graph);
  EXPECT_EQ(everyone.crashed_nodes().size(), graph.num_nodes());
  for (NodeId v = 0; v < graph.num_nodes(); ++v) {
    EXPECT_TRUE(everyone.node_crashes(v));
    EXPECT_GE(everyone.crash_time(v), 0.0);
    EXPECT_LT(everyone.crash_time(v), all.crash_horizon);
    EXPECT_FALSE(everyone.node_down(v, -1.0));
    EXPECT_TRUE(everyone.node_down(v, all.crash_horizon + 1.0));
  }

  FaultSpec none;
  const FaultPlan nobody(none, graph);
  EXPECT_TRUE(nobody.crashed_nodes().empty());
  EXPECT_TRUE(nobody.churned_edges().empty());
}

TEST(FaultPlanTest, LinkDownWindowsAreFinite) {
  const Graph graph = test_graph();
  FaultSpec spec;
  spec.link_down_fraction = 1.0;
  spec.link_down_duration = 3.0;
  const FaultPlan plan(spec, graph);
  ASSERT_EQ(plan.churned_edges().size(), graph.num_edges());
  for (EdgeId e = 0; e < graph.num_edges(); ++e) {
    const ArcId forward = static_cast<ArcId>(e << 1);
    const ArcId backward = static_cast<ArcId>((e << 1) | 1u);
    bool ever_down = false;
    for (double t = 0.0; t < spec.link_down_horizon + spec.link_down_duration;
         t += 0.5) {
      // Both directions of an edge share the window.
      ASSERT_EQ(plan.link_down(forward, t), plan.link_down(backward, t));
      ever_down = ever_down || plan.link_down(forward, t);
    }
    EXPECT_TRUE(ever_down);
    EXPECT_FALSE(plan.link_down(
        forward, spec.link_down_horizon + spec.link_down_duration + 1.0));
  }
}

TEST(FaultPlanTest, BurstChainIsDeterministicAndBounded) {
  const Graph graph = test_graph();
  FaultSpec spec;
  spec.seed = 13;
  spec.burst_rate = 0.9;      // chains go bad quickly...
  spec.burst_recover = 0.1;   // ...and stay bad a while
  spec.burst_loss = 1.0;
  spec.burst_cap = 4;
  FaultPlan a(spec, graph);
  FaultPlan b(spec, graph);
  std::uint64_t drops = 0;
  std::uint64_t index = 0;
  for (std::uint64_t step = 0; step < 200; ++step) {
    const FaultAction action =
        a.channel_action(/*channel=*/0, index, static_cast<double>(step));
    ASSERT_EQ(action,
              b.channel_action(0, index, static_cast<double>(step)))
        << "step " << step;
    ++index;
    if (action == FaultAction::kDrop) ++drops;
  }
  // Bursts happen, but never beyond the per-edge budget.
  EXPECT_GT(drops, 0u);
  EXPECT_LE(drops, spec.burst_cap);
  EXPECT_EQ(a.stats().burst_dropped, drops);
  // Budget exhausted: the edge's chain is pinned good forever after.
  for (std::uint64_t step = 200; step < 260; ++step)
    EXPECT_EQ(a.channel_action(0, index++, static_cast<double>(step)),
              FaultAction::kDeliver);
}

TEST(FaultPlanTest, BurstStateIsSharedAcrossEdgeDirections) {
  const Graph graph = test_graph();
  FaultSpec spec;
  spec.seed = 21;
  spec.burst_rate = 1.0;  // bad from step 1 onward
  spec.burst_recover = 0.0;
  spec.burst_loss = 1.0;
  spec.burst_max_run = 64;
  spec.burst_cap = 2;
  FaultPlan plan(spec, graph);
  // Both directions of edge 0 draw from the same chain and the same
  // budget: two drops total, wherever they land.
  EXPECT_EQ(plan.channel_action(0, 0, 1.0), FaultAction::kDrop);
  EXPECT_EQ(plan.channel_action(1, 0, 1.0), FaultAction::kDrop);
  EXPECT_EQ(plan.channel_action(0, 1, 2.0), FaultAction::kDeliver);
  EXPECT_EQ(plan.channel_action(1, 1, 2.0), FaultAction::kDeliver);
  EXPECT_EQ(plan.stats().burst_dropped, 2u);
}

TEST(FaultPlanTest, PrrDropsShareTheChannelLossCap) {
  const Graph graph = test_graph();
  FaultSpec spec;
  spec.seed = 17;
  spec.prr_levels = {0.25};  // every edge: 75% loss, absent the cap
  spec.max_losses_per_channel = 3;
  FaultPlan plan(spec, graph);
  EXPECT_EQ(plan.link_prr(/*channel=*/0), 0.25);
  std::uint64_t drops = 0;
  for (std::uint64_t index = 0; index < 100; ++index)
    if (plan.channel_action(0, index) == FaultAction::kDrop) ++drops;
  EXPECT_GT(drops, 0u);
  EXPECT_LE(drops, spec.max_losses_per_channel);
  EXPECT_EQ(plan.stats().prr_dropped, drops);
  // Cap consumed: lossless forever after.
  EXPECT_EQ(plan.channel_action(0, 100), FaultAction::kDeliver);
}

TEST(FaultPlanTest, PrrLevelAssignmentIsDeterministic) {
  const Graph graph = test_graph();
  FaultSpec spec;
  spec.seed = 23;
  spec.prr_levels = {0.9, 0.6, 0.3};
  const FaultPlan a(spec, graph);
  const FaultPlan b(spec, graph);
  for (ArcId channel = 0; channel < 2 * graph.num_edges(); ++channel) {
    ASSERT_EQ(a.link_prr(channel), b.link_prr(channel));
    // Both directions of an edge share the level.
    ASSERT_EQ(a.link_prr(channel), a.link_prr(channel ^ 1u));
  }
}

TEST(FaultPlanTest, RegionOutageWindowsAreFiniteAndShared) {
  const Graph graph = test_graph();
  FaultSpec spec;
  spec.seed = 29;
  spec.region_count = 2;
  spec.region_radius = 2.0;  // covers the whole virtual unit square
  spec.region_horizon = 8.0;
  spec.region_duration = 3.0;
  const FaultPlan plan(spec, graph);
  EXPECT_EQ(plan.region_edges().size(), graph.num_edges());
  bool ever_down = false;
  for (EdgeId e = 0; e < graph.num_edges(); ++e) {
    const ArcId forward = static_cast<ArcId>(e << 1);
    const ArcId backward = static_cast<ArcId>((e << 1) | 1u);
    for (double t = 0.0; t < spec.region_horizon + spec.region_duration;
         t += 0.5) {
      ASSERT_EQ(plan.region_down(forward, t), plan.region_down(backward, t));
      ever_down = ever_down || plan.region_down(forward, t);
    }
    // Every window closes: outages are finite like churn windows.
    EXPECT_FALSE(plan.region_down(
        forward, spec.region_horizon + spec.region_duration + 1.0));
  }
  EXPECT_TRUE(ever_down);
}

TEST(FaultPlanTest, RegionDiscsUseProvidedPositions) {
  const Graph graph = test_graph();
  FaultSpec spec;
  spec.seed = 31;
  spec.region_count = 4;
  spec.region_radius = 0.25;
  // All nodes far outside the unit square the disc centers are hashed
  // into: no edge can be covered.
  const std::vector<Point> far(graph.num_nodes(), Point{100.0, 100.0});
  const FaultPlan missed(spec, graph, &far);
  EXPECT_TRUE(missed.region_edges().empty());
  // All nodes in the middle of the square with a radius covering it: every
  // edge is covered by every disc.
  spec.region_radius = 2.0;
  const std::vector<Point> centered(graph.num_nodes(), Point{0.5, 0.5});
  const FaultPlan covered(spec, graph, &centered);
  EXPECT_EQ(covered.region_edges().size(), graph.num_edges());
}

#ifndef NDEBUG
TEST(FaultPlanTest, ReuseAcrossRunsAsserts) {
  const Graph graph = test_graph();
  FaultSpec spec;
  spec.drop_rate = 0.1;
  FaultPlan plan(spec, graph);
  plan.on_run_start();  // first run claims the plan
  EXPECT_THROW(plan.on_run_start(), contract_error);
}
#endif

TEST(FaultPlanTest, LoadPrrLevelsParsesTraceFiles) {
  const std::string path = testing::TempDir() + "fdlsp_prr_trace.txt";
  {
    std::ofstream out(path);
    out << "0.9 0.75\n0.5\n";
  }
  const std::vector<double> levels = load_prr_levels(path);
  ASSERT_EQ(levels.size(), 3u);
  EXPECT_EQ(levels[0], 0.9);
  EXPECT_EQ(levels[1], 0.75);
  EXPECT_EQ(levels[2], 0.5);
  // A loaded trace plugs straight into the spec grammar.
  FaultSpec spec;
  spec.prr_levels = levels;
  EXPECT_EQ(parse_fault_spec(format_fault_spec(spec)), spec);

  {
    std::ofstream out(path);
    out << "0.9 banana\n";
  }
  EXPECT_THROW(load_prr_levels(path), contract_error);
  {
    std::ofstream out(path);
    out << "1.5\n";  // PRR above 1 is meaningless
  }
  EXPECT_THROW(load_prr_levels(path), contract_error);
  EXPECT_THROW(load_prr_levels("/nonexistent/prr.txt"), contract_error);
  std::remove(path.c_str());
}

TEST(FaultPlanTest, SpecFormatsAndParsesRoundTrip) {
  FaultSpec spec;
  spec.seed = 7;
  spec.drop_rate = 0.125;
  spec.duplicate_rate = 0.0625;
  spec.corrupt_rate = 0.25;
  spec.max_losses_per_channel = 5;
  spec.crash_fraction = 0.5;
  spec.crash_horizon = 12.0;
  spec.link_down_fraction = 0.25;
  spec.link_down_horizon = 10.0;
  spec.link_down_duration = 2.0;
  EXPECT_EQ(parse_fault_spec(format_fault_spec(spec)), spec);

  const FaultSpec defaults;
  EXPECT_EQ(format_fault_spec(defaults), "none");
  EXPECT_EQ(parse_fault_spec("none"), defaults);
  EXPECT_EQ(parse_fault_spec(format_fault_spec(defaults)), defaults);

  FaultSpec drop_only;
  drop_only.drop_rate = 0.1;
  EXPECT_EQ(parse_fault_spec(format_fault_spec(drop_only)), drop_only);

  EXPECT_THROW(parse_fault_spec("bogus=1"), contract_error);
  EXPECT_THROW(parse_fault_spec("drop"), contract_error);
}

// The seam contract: with no plan armed, the faulted entry point must
// reproduce the unfaulted run bit for bit — coloring, slots, rounds,
// messages — on both engine families.
TEST(FaultPlanTest, ZeroFaultPathIsByteIdentical) {
  const Graph sync_graph = test_graph();
  const Graph async_graph = generate_cycle(10);
  const FaultSpec none;
  ASSERT_FALSE(none.any());

  for (const SchedulerKind kind :
       {SchedulerKind::kDistMisGbg, SchedulerKind::kDistMisGeneral,
        SchedulerKind::kRandomized}) {
    const ScheduleResult plain = run_scheduler(kind, sync_graph, 3);
    const ScheduleResult faulted =
        run_scheduler(kind, sync_graph, 3, {.faults = &none});
    ASSERT_EQ(plain.coloring.num_arcs(), faulted.coloring.num_arcs());
    for (ArcId a = 0; a < plain.coloring.num_arcs(); ++a)
      ASSERT_EQ(plain.coloring.color(a), faulted.coloring.color(a));
    EXPECT_EQ(plain.num_slots, faulted.num_slots);
    EXPECT_EQ(plain.rounds, faulted.rounds);
    EXPECT_EQ(plain.messages, faulted.messages);
  }

  const ScheduleResult plain =
      run_scheduler(SchedulerKind::kDfs, async_graph, 3);
  const ScheduleResult faulted =
      run_scheduler(SchedulerKind::kDfs, async_graph, 3, {.faults = &none});
  for (ArcId a = 0; a < plain.coloring.num_arcs(); ++a)
    ASSERT_EQ(plain.coloring.color(a), faulted.coloring.color(a));
  EXPECT_EQ(plain.messages, faulted.messages);
}

}  // namespace
}  // namespace fdlsp
