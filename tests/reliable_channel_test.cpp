// Ack/retransmit wrapper tests (sim/reliable.h): the hardened schedulers
// must restore the perfect-channel guarantee under every bounded-loss fault
// class, on both engines, while the same plans demonstrably break the
// unhardened runs.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "algos/dfs_schedule.h"
#include "algos/dist_mis.h"
#include "algos/dist_repair.h"
#include "algos/randomized.h"
#include "algos/scheduler.h"
#include "coloring/checker.h"
#include "graph/arcs.h"
#include "graph/generators.h"
#include "graph/graph.h"
#include "sim/fault.h"
#include "sim/reliable.h"
#include "sim/run_config.h"
#include "sim/sync_engine.h"
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
  const std::size_t base = ReliableSyncSet::round_dilation(spec);
  EXPECT_GT(base, 1u);
  spec.max_losses_per_channel *= 4;
  EXPECT_GT(ReliableSyncSet::round_dilation(spec), base);
  // A churn window extends the retransmission window further.
  spec.link_down_fraction = 0.5;
  spec.link_down_duration = 6.0;
  const std::size_t churned = ReliableSyncSet::round_dilation(spec);
  EXPECT_GT(churned, ReliableSyncSet::round_dilation(lossy_spec()));
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

// --- Sleeping through idle window rounds is invisible ---

/// Forwards every call to a ReliableSyncSet and counts the engine's
/// on_round calls. An insomniac one then calls ctx.sleep_until(round + 1),
/// which overrides the wrapper's sleep: every unfinished node runs every
/// outer round, as before the engine let nodes sleep.
class CountingDecorator final : public SyncProgramSet {
 public:
  CountingDecorator(ReliableSyncSet& hardened, bool insomniac)
      : hardened_(&hardened), insomniac_(insomniac) {}

  std::size_t calls() const { return calls_; }

  std::size_t size() const override { return hardened_->size(); }
  void prepare_shards(std::size_t shards) override {
    hardened_->prepare_shards(shards);
  }
  void on_round(NodeId v, SyncContext& ctx,
                std::span<const Message> inbox) override {
    ++calls_;
    hardened_->on_round(v, ctx, inbox);
    if (insomniac_) ctx.sleep_until(ctx.round() + 1);
  }
  bool ready_for_phase_advance(NodeId v) const override {
    return hardened_->ready_for_phase_advance(v);
  }
  void on_phase(NodeId v, std::size_t new_phase) override {
    hardened_->on_phase(v, new_phase);
  }
  bool finished(NodeId v) const override { return hardened_->finished(v); }

 private:
  ReliableSyncSet* hardened_;
  bool insomniac_;
  std::size_t calls_ = 0;  // faulted runs are serial: one thread counts
};

/// A driver that hardens the runner's set and puts a CountingDecorator on
/// top; `calls` accumulates the decorator's counts over every run.
SyncSetDriver decorated(bool insomniac, std::size_t& calls) {
  return [insomniac, &calls](const Graph& graph, SyncProgramSet& set,
                             const RunConfig& run, std::size_t max_rounds) {
    ReliableSyncSet hardened(set, run.fault_spec());
    CountingDecorator outer(hardened, insomniac);
    SyncEngine engine(graph, outer);
    const RunAttachment attached(engine, graph, run);
    SyncSetRun driven;
    driven.metrics = engine.run(max_rounds * hardened.round_dilation());
    driven.faulted = attached.faulted();
    driven.transport = hardened.transport_stats();
    driven.suspected = hardened.suspected_peers();
    calls += outer.calls();
    return driven;
  };
}

/// Everything a hardened run reports, for byte-for-byte comparison.
struct RunRecord {
  std::vector<Color> colors;
  std::size_t rounds = 0;
  std::size_t messages = 0;
  bool completed = false;
  std::vector<std::uint64_t> faults;
  std::vector<double> transport;
  std::vector<NodeId> suspected;
  bool operator==(const RunRecord&) const = default;
};

RunRecord record(const ArcColoring& coloring, std::size_t rounds,
                 std::size_t messages, bool completed, const FaultStats& f,
                 const TransportStats& t, std::vector<NodeId> suspected) {
  RunRecord r;
  for (ArcId a = 0; a < coloring.num_arcs(); ++a)
    r.colors.push_back(coloring.color(a));
  r.rounds = rounds;
  r.messages = messages;
  r.completed = completed;
  r.faults = {f.dropped,      f.duplicated,   f.corrupted,
              f.burst_dropped, f.prr_dropped, f.region_drops,
              f.link_down_drops, f.crash_drops};
  r.transport = {static_cast<double>(t.retransmits),
                 static_cast<double>(t.probes),
                 static_cast<double>(t.suspicions),
                 static_cast<double>(t.retrusts),
                 static_cast<double>(t.abandoned), t.max_backoff};
  r.suspected = std::move(suspected);
  return r;
}

RunRecord record(const ScheduleResult& result) {
  return record(result.coloring, result.rounds, result.messages,
                result.completed, result.faults, result.transport,
                result.suspected);
}

RunRecord record(const DistRepairResult& result) {
  return record(result.coloring, result.rounds, result.messages,
                result.completed, result.faults, result.transport, {});
}

TEST(ReliableSleepTest, SleepingThroughIdleWindowRoundsIsInvisible) {
  FaultSpec lossy;  // i.i.d. loss plus Gilbert–Elliott bursts
  lossy.seed = 19;
  lossy.drop_rate = 0.1;
  lossy.burst_rate = 0.2;
  lossy.burst_recover = 0.3;
  FaultSpec crash;  // fail-stops that the detector must convict
  crash.seed = 23;
  crash.drop_rate = 0.05;
  crash.crash_fraction = 0.2;
  crash.crash_horizon = 40.0;
  // Neighbors of a dead node retransmit and then probe it every 2–5 outer
  // rounds until the detector convicts it, so the share of skipped calls
  // shrinks as crashed nodes crowd a small graph (about 89.9% on a 4x4
  // grid at this crash rate, 91% on 6x6).
  const Graph graph = generate_grid(6, 6);
  const ScheduleResult clean =
      run_scheduler(SchedulerKind::kDistMisGbg, graph, 3);
  ArcColoring stale = clean.coloring;
  for (const NeighborEntry& entry : graph.neighbors(14))
    stale.clear(arc_along(14, entry));

  std::size_t plans = 0;
  for (const FaultSpec& spec : {lossy, crash}) {
    const RunConfig run{.faults = &spec, .reliable = true};
    DistMisOptions mis;
    mis.seed = 3;
    mis.faults = &spec;
    mis.reliable = true;
    RandomizedOptions randomized;
    randomized.seed = 3;
    randomized.faults = &spec;
    randomized.reliable = true;
    // Each algorithm runs plain, under a counting pass-through decorator
    // (the wrapper still sleeps) and under the insomniac one.
    const auto runs = [&](const SyncSetDriver& drive) {
      return std::vector<RunRecord>{
          record(run_dist_mis(graph, mis, drive)),
          record(run_randomized(graph, randomized, drive)),
          record(run_distributed_repair(graph, stale, 3, run, drive))};
    };
    const std::vector<RunRecord> plain = runs(drive_sync_set);
    std::size_t sleeping_calls = 0;
    std::size_t insomniac_calls = 0;
    const std::vector<RunRecord> counted =
        runs(decorated(false, sleeping_calls));
    const std::vector<RunRecord> awake =
        runs(decorated(true, insomniac_calls));
    const char* names[] = {"distMIS", "randomized", "dist_repair"};
    for (std::size_t i = 0; i < plain.size(); ++i) {
      EXPECT_EQ(plain[i], counted[i]) << names[i] << ", plan " << plans;
      EXPECT_EQ(plain[i], awake[i]) << names[i] << ", plan " << plans;
      EXPECT_GT(plain[i].rounds, 0u) << names[i] << ", plan " << plans;
    }
    // The crash plan drives the detector, whose verdicts must match too.
    if (spec.crash_fraction > 0.0) {
      EXPECT_FALSE(plain[0].suspected.empty()) << "no peer was suspected";
    }
    // The three runs' call counts were summed per decorator; sleeping
    // skips at least 90% of the outer calls.
    EXPECT_GT(insomniac_calls, 0u);
    EXPECT_LE(10 * sleeping_calls, insomniac_calls) << "plan " << plans;
    ++plans;
  }
  EXPECT_EQ(plans, 2u);
}

}  // namespace
}  // namespace fdlsp
