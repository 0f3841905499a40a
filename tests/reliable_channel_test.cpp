// Ack/retransmit wrapper tests (sim/reliable.h): the hardened schedulers
// must restore the perfect-channel guarantee under every bounded-loss fault
// class, on both engines, while the same plans demonstrably break the
// unhardened runs.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "algos/dfs_schedule.h"
#include "algos/scheduler.h"
#include "coloring/checker.h"
#include "graph/arcs.h"
#include "graph/generators.h"
#include "graph/graph.h"
#include "sim/fault.h"
#include "sim/reliable.h"
#include "support/rng.h"
#include "verify/fault_oracles.h"

namespace fdlsp {
namespace {

FaultSpec lossy_spec() {
  FaultSpec spec;
  spec.seed = 11;
  spec.drop_rate = 0.25;
  spec.duplicate_rate = 0.15;
  spec.corrupt_rate = 0.10;
  return spec;
}

TEST(ReliableChannelTest, RoundDilationGrowsWithLossBudget) {
  FaultSpec spec;
  const std::size_t base = ReliableSyncProgram::round_dilation(spec);
  EXPECT_GT(base, 1u);
  spec.max_losses_per_channel *= 4;
  EXPECT_GT(ReliableSyncProgram::round_dilation(spec), base);
  // A churn window extends the retransmission window further.
  spec.link_down_fraction = 0.5;
  spec.link_down_duration = 6.0;
  const std::size_t churned = ReliableSyncProgram::round_dilation(spec);
  EXPECT_GT(churned, ReliableSyncProgram::round_dilation(lossy_spec()));
}

class ReliableSyncSchedulers
    : public ::testing::TestWithParam<SchedulerKind> {};

TEST_P(ReliableSyncSchedulers, LossySpecStillYieldsFeasibleSchedule) {
  const SchedulerKind kind = GetParam();
  Rng rng(3);
  const std::vector<Graph> graphs = {
      generate_cycle(9), generate_star(8), generate_grid(3, 4),
      generate_gnm(14, 24, rng)};
  const FaultSpec spec = lossy_spec();
  for (std::size_t i = 0; i < graphs.size(); ++i) {
    const ScheduleResult result = run_scheduler(
        kind, graphs[i], /*seed=*/5, {.faults = &spec, .reliable = true});
    EXPECT_TRUE(result.completed) << "graph " << i;
    EXPECT_GT(result.faults.dropped, 0u) << "graph " << i;
    const ArcView view(graphs[i]);
    EXPECT_TRUE(is_feasible_schedule(view, result.coloring)) << "graph " << i;
    const OracleVerdict verdict = check_fault_result(graphs[i], result);
    EXPECT_TRUE(verdict.ok) << verdict.failure;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ReliableSyncSchedulers,
    ::testing::Values(SchedulerKind::kDistMisGbg,
                      SchedulerKind::kDistMisGeneral,
                      SchedulerKind::kRandomized),
    [](const auto& param_info) {
      std::string name = scheduler_name(param_info.param);
      for (char& ch : name)
        if (ch == '-') ch = '_';
      return name;
    });

TEST(ReliableChannelTest, AsyncWrapperRestoresDfsUnderLoss) {
  const std::vector<Graph> graphs = {generate_cycle(10), generate_star(9),
                                     generate_grid(3, 3)};
  const FaultSpec spec = lossy_spec();
  for (std::size_t i = 0; i < graphs.size(); ++i) {
    const ScheduleResult result =
        run_scheduler(SchedulerKind::kDfs, graphs[i], /*seed=*/5,
                      {.faults = &spec, .reliable = true});
    EXPECT_TRUE(result.completed) << "graph " << i;
    EXPECT_GT(result.faults.dropped, 0u) << "graph " << i;
    const ArcView view(graphs[i]);
    EXPECT_TRUE(is_feasible_schedule(view, result.coloring)) << "graph " << i;
  }
}

// The wrapper must actually be load-bearing: an unhardened DFS loses its
// token to the first dropped message and stalls.
TEST(ReliableChannelTest, UnwrappedDfsLosesItsTokenUnderDrops) {
  FaultSpec spec;
  spec.seed = 11;
  spec.drop_rate = 0.5;
  const Graph graph = generate_cycle(10);
  const ScheduleResult result = run_scheduler(
      SchedulerKind::kDfs, graph, /*seed=*/5, {.faults = &spec});
  const ArcView view(graph);
  EXPECT_FALSE(result.completed && is_feasible_schedule(view, result.coloring));
}

// Corruption is detected by the frame checksum and recovered by
// retransmission: a corrupt-only plan behaves like bounded loss.
TEST(ReliableChannelTest, CorruptionIsDetectedAndRetransmitted) {
  FaultSpec spec;
  spec.seed = 23;
  spec.corrupt_rate = 0.3;
  const Graph graph = generate_cycle(9);
  const ArcView view(graph);
  for (const SchedulerKind kind :
       {SchedulerKind::kDistMisGbg, SchedulerKind::kDfs}) {
    const ScheduleResult result = run_scheduler(
        kind, graph, /*seed=*/4, {.faults = &spec, .reliable = true});
    EXPECT_TRUE(result.completed);
    EXPECT_GT(result.faults.corrupted, 0u);
    EXPECT_TRUE(is_feasible_schedule(view, result.coloring));
  }
}

// Duplicates alone must be absorbed by sequence-number dedup even without
// any loss to mask them.
TEST(ReliableChannelTest, DuplicatesAreDeduplicated) {
  FaultSpec spec;
  spec.seed = 29;
  spec.duplicate_rate = 0.5;
  const Graph graph = generate_grid(3, 3);
  const ArcView view(graph);
  for (const SchedulerKind kind :
       {SchedulerKind::kDistMisGbg, SchedulerKind::kDfs}) {
    const ScheduleResult result = run_scheduler(
        kind, graph, /*seed=*/4, {.faults = &spec, .reliable = true});
    EXPECT_TRUE(result.completed);
    EXPECT_GT(result.faults.duplicated, 0u);
    EXPECT_TRUE(is_feasible_schedule(view, result.coloring));
  }
}

// Hardened faulted runs stay seed-deterministic: two identical runs agree
// arc for arc (the fault decisions are pure functions of the spec).
TEST(ReliableChannelTest, FaultedRunsAreDeterministic) {
  const Graph graph = generate_grid(4, 3);
  const FaultSpec spec = lossy_spec();
  for (const SchedulerKind kind :
       {SchedulerKind::kDistMisGbg, SchedulerKind::kDfs}) {
    const ScheduleResult first =
        run_scheduler(kind, graph, 5, {.faults = &spec, .reliable = true});
    const ScheduleResult second =
        run_scheduler(kind, graph, 5, {.faults = &spec, .reliable = true});
    ASSERT_EQ(first.coloring.num_arcs(), second.coloring.num_arcs());
    for (ArcId a = 0; a < first.coloring.num_arcs(); ++a)
      ASSERT_EQ(first.coloring.color(a), second.coloring.color(a));
    EXPECT_EQ(first.messages, second.messages);
    EXPECT_EQ(first.faults.dropped, second.faults.dropped);
  }
}

// Link churn: a finite down window is ridden out by retransmission on both
// engines (the dilation/give-up margins account for it).
TEST(ReliableChannelTest, LinkChurnIsRiddenOut) {
  FaultSpec spec;
  spec.seed = 31;
  spec.link_down_fraction = 0.4;
  spec.link_down_duration = 3.0;
  for (const SchedulerKind kind :
       {SchedulerKind::kDistMisGbg, SchedulerKind::kDfs}) {
    const Graph graph = generate_cycle(8);
    const ScheduleResult result =
        run_scheduler(kind, graph, 6, {.faults = &spec, .reliable = true});
    EXPECT_TRUE(result.completed) << scheduler_name(kind);
    const OracleVerdict verdict = check_fault_result(graph, result, &spec);
    EXPECT_TRUE(verdict.ok) << scheduler_name(kind) << ": "
                            << verdict.failure;
  }
}

// Gilbert–Elliott bursts are ridden out like every other bounded class, on
// both engines, and the injection actually fires.
TEST(ReliableChannelTest, BurstLossIsRiddenOut) {
  FaultSpec spec;
  spec.seed = 37;
  spec.burst_rate = 0.3;
  spec.burst_recover = 0.2;
  spec.burst_loss = 1.0;
  for (const SchedulerKind kind :
       {SchedulerKind::kDistMisGbg, SchedulerKind::kDfs}) {
    const Graph graph = generate_grid(3, 3);
    const ScheduleResult result =
        run_scheduler(kind, graph, 6, {.faults = &spec, .reliable = true});
    EXPECT_TRUE(result.completed) << scheduler_name(kind);
    EXPECT_GT(result.faults.burst_dropped, 0u) << scheduler_name(kind);
    const ArcView view(graph);
    EXPECT_TRUE(is_feasible_schedule(view, result.coloring))
        << scheduler_name(kind);
  }
}

// Under sustained loss the adaptive transport backs off: the recorded
// maximum retransmit spacing must exceed the base interval on both the
// round-paced (sync) and RTO-paced (async) wrappers.
TEST(AdaptiveTransportTest, BackoffGrowsUnderSustainedLoss) {
  FaultSpec spec;
  spec.seed = 41;
  spec.drop_rate = 0.5;
  spec.burst_rate = 0.5;
  spec.burst_recover = 0.1;
  spec.burst_loss = 1.0;
  for (const SchedulerKind kind :
       {SchedulerKind::kDistMisGbg, SchedulerKind::kDfs}) {
    const Graph graph = generate_cycle(8);
    const ScheduleResult result =
        run_scheduler(kind, graph, 7, {.faults = &spec, .reliable = true});
    EXPECT_TRUE(result.completed) << scheduler_name(kind);
    EXPECT_GT(result.transport.retransmits, 0u) << scheduler_name(kind);
    // Base spacing is 2 (rounds on the sync wrapper, time units on the
    // async one); sustained failures must have pushed past it.
    EXPECT_GT(result.transport.max_backoff, 2.0) << scheduler_name(kind);
  }
}

// A peer that fail-stops with traffic pending exhausts the retransmit
// budget: the detector suspects it, the probe budget runs dry, and its
// frames are abandoned. Accuracy: every suspect actually crashed.
TEST(AdaptiveTransportTest, BudgetExhaustionRaisesSuspicion) {
  FaultSpec spec;
  spec.seed = 43;
  spec.crash_fraction = 0.2;
  spec.crash_horizon = 2.0;  // die early, while traffic is still flowing
  spec.max_losses_per_channel = 1;
  for (const SchedulerKind kind :
       {SchedulerKind::kDistMisGbg, SchedulerKind::kDfs}) {
    const Graph graph = generate_cycle(8);
    const ScheduleResult result =
        run_scheduler(kind, graph, 9, {.faults = &spec, .reliable = true});
    // DistMIS survivors finish around the hole; DFS only degrades
    // gracefully (the token dies with the crashed node) — but on both, the
    // run terminates and the detector has convicted the dead peer.
    if (kind != SchedulerKind::kDfs) {
      EXPECT_TRUE(result.completed) << scheduler_name(kind);
    }
    EXPECT_FALSE(result.suspected.empty()) << scheduler_name(kind);
    EXPECT_GT(result.transport.suspicions, 0u) << scheduler_name(kind);
    EXPECT_GT(result.transport.abandoned, 0u) << scheduler_name(kind);
    // No churn/outage windows armed: suspicion must never hit a live peer.
    const FaultPlan plan(spec, graph);
    const std::vector<NodeId> crashed = plan.crashed_nodes();
    for (const NodeId v : result.suspected)
      EXPECT_TRUE(std::binary_search(crashed.begin(), crashed.end(), v))
          << scheduler_name(kind) << ": live node " << v << " suspected";
  }
}

// A long region outage looks like death until it lifts: the detector
// suspects stalled peers, keeps probing within its budget, and re-trusts
// them once the window closes — the run still completes.
TEST(AdaptiveTransportTest, RecoveryAfterOutageRetrusts) {
  FaultSpec spec;
  spec.seed = 47;
  spec.region_count = 1;
  spec.region_radius = 2.0;   // the disc covers every edge
  spec.region_horizon = 1.0;    // the window opens immediately...
  spec.region_duration = 60.0;  // ...and outlasts the suspicion threshold
                                // even at the async wrapper's maximum RTO
  spec.max_losses_per_channel = 1;
  for (const SchedulerKind kind :
       {SchedulerKind::kDistMisGbg, SchedulerKind::kDfs}) {
    const Graph graph = generate_cycle(6);
    const ScheduleResult result =
        run_scheduler(kind, graph, 8, {.faults = &spec, .reliable = true});
    EXPECT_TRUE(result.completed) << scheduler_name(kind);
    EXPECT_GT(result.faults.region_drops, 0u) << scheduler_name(kind);
    EXPECT_GT(result.transport.suspicions, 0u) << scheduler_name(kind);
    EXPECT_GT(result.transport.retrusts, 0u) << scheduler_name(kind);
    // Nobody died: every suspicion was transient, nothing was abandoned.
    EXPECT_EQ(result.transport.abandoned, 0u) << scheduler_name(kind);
    const ArcView view(graph);
    EXPECT_TRUE(is_feasible_schedule(view, result.coloring))
        << scheduler_name(kind);
  }
}

}  // namespace
}  // namespace fdlsp
