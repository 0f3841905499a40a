// Property suite for the simulation runtime performance layer.
//
// 1. SmallPayload: the zero-alloc message payload must behave exactly like
//    a vector at the API level — inline up to 4 words, transparent heap
//    spill beyond, value-type copy/move/equality — because every protocol
//    in src/algos reads and writes message.data through that interface.
// 2. Sharded rounds: SyncEngine run on S shards and S threads must be
//    BYTE-IDENTICAL to the serial engine — same coloring bytes, same
//    rounds, same message counts — for any shard count. Verified for
//    every engine-backed scheduler across all six scenario families.
// 3. run_scenarios: the sharded sweep driver must report identical counts
//    and identical (lowest-index-first) failure ordering for any pool.
// 4. RunConfig: an auditor attached through the one run configuration
//    reaches every engine-backed scheduler and the distributed repair
//    without changing their results.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "algos/dist_mis.h"
#include "algos/dist_repair.h"
#include "algos/scheduler.h"
#include "coloring/coloring.h"
#include "coloring/greedy.h"
#include "exp/workloads.h"
#include "graph/arcs.h"
#include "graph/generators.h"
#include "sim/shard.h"
#include "sim/sync_engine.h"
#include "support/alloc_audit.h"
#include "support/rng.h"
#include "support/small_payload.h"
#include "support/thread_pool.h"
#include "verify/differential.h"
#include "verify/scenario.h"

namespace fdlsp {
namespace {

// ---------------------------------------------------------------------------
// SmallPayload
// ---------------------------------------------------------------------------

TEST(SmallPayload, StaysInlineUpToCapacity) {
  SmallPayload p;
  EXPECT_TRUE(p.empty());
  EXPECT_EQ(p.capacity(), SmallPayload::kInlineCapacity);
  for (std::int64_t i = 0; i < 4; ++i) p.push_back(i * 10);
  EXPECT_EQ(p.size(), 4u);
  EXPECT_FALSE(p.spilled());
  for (std::int64_t i = 0; i < 4; ++i)
    EXPECT_EQ(p[static_cast<std::size_t>(i)], i * 10);
}

TEST(SmallPayload, SpillsPastCapacityAndPreservesContents) {
  SmallPayload p;
  for (std::int64_t i = 0; i < 5; ++i) p.push_back(i);
  EXPECT_TRUE(p.spilled());
  EXPECT_EQ(p.size(), 5u);
  EXPECT_GE(p.capacity(), 5u);
  for (std::int64_t i = 0; i < 5; ++i)
    EXPECT_EQ(p[static_cast<std::size_t>(i)], i);
  // Keep growing well past the first spill.
  for (std::int64_t i = 5; i < 100; ++i) p.push_back(i);
  EXPECT_EQ(p.size(), 100u);
  EXPECT_EQ(p.front(), 0);
  EXPECT_EQ(p.back(), 99);
}

TEST(SmallPayload, ClearResetsSizeButKeepsCapacity) {
  SmallPayload p;
  for (std::int64_t i = 0; i < 32; ++i) p.push_back(i);
  const std::size_t grown = p.capacity();
  EXPECT_GE(grown, 32u);
  p.clear();
  EXPECT_TRUE(p.empty());
  EXPECT_EQ(p.capacity(), grown);  // slab semantics: reset, not freed
  EXPECT_TRUE(p.spilled());
  for (std::int64_t i = 0; i < 32; ++i) p.push_back(i);
  EXPECT_EQ(p.capacity(), grown);  // refill did not reallocate
}

TEST(SmallPayload, MoveStealsHeapAndEmptiesSource) {
  SmallPayload big;
  for (std::int64_t i = 0; i < 20; ++i) big.push_back(i);
  const std::int64_t* storage = big.data();
  SmallPayload moved(std::move(big));
  EXPECT_EQ(moved.data(), storage);  // heap buffer stolen, not copied
  EXPECT_EQ(moved.size(), 20u);
  EXPECT_TRUE(big.empty());  // NOLINT(bugprone-use-after-move): spec'd state
  EXPECT_FALSE(big.spilled());

  SmallPayload small{1, 2, 3};
  SmallPayload small_moved(std::move(small));
  EXPECT_EQ(small_moved, (SmallPayload{1, 2, 3}));
  EXPECT_FALSE(small_moved.spilled());
}

TEST(SmallPayload, MoveAssignIntoSpilledReusesNothingLeaks) {
  SmallPayload a;
  for (std::int64_t i = 0; i < 10; ++i) a.push_back(i);
  SmallPayload b;
  for (std::int64_t i = 0; i < 40; ++i) b.push_back(-i);
  b = std::move(a);
  EXPECT_EQ(b.size(), 10u);
  for (std::int64_t i = 0; i < 10; ++i)
    EXPECT_EQ(b[static_cast<std::size_t>(i)], i);
}

TEST(SmallPayload, EqualityIsValueBasedAcrossStorageModes) {
  SmallPayload inline_side{7, 8, 9};
  SmallPayload heap_side;
  for (std::int64_t i = 0; i < 6; ++i) heap_side.push_back(i);  // spill it
  heap_side.clear();
  for (std::int64_t v : {7, 8, 9}) heap_side.push_back(v);
  EXPECT_TRUE(heap_side.spilled());
  EXPECT_FALSE(inline_side.spilled());
  EXPECT_EQ(inline_side, heap_side);  // same values, different storage
  heap_side.push_back(10);
  EXPECT_NE(inline_side, heap_side);
}

TEST(SmallPayload, VectorInterop) {
  const std::vector<std::int64_t> source{4, 5, 6, 7, 8, 9};
  SmallPayload from_vector = source;  // implicit, call sites assign vectors
  EXPECT_EQ(from_vector.size(), source.size());
  EXPECT_TRUE(std::equal(from_vector.begin(), from_vector.end(),
                         source.begin()));
  SmallPayload assigned;
  assigned.push_back(-1);
  assigned = source;
  EXPECT_EQ(assigned, from_vector);
}

TEST(SmallPayload, InsertAndAssignRanges) {
  SmallPayload p{1, 5};
  const std::vector<std::int64_t> middle{2, 3, 4};
  p.insert(p.begin() + 1, middle.begin(), middle.end());
  EXPECT_EQ(p, (SmallPayload{1, 2, 3, 4, 5}));
  const std::vector<std::int64_t> fresh{9, 8};
  p.assign(fresh.begin(), fresh.end());
  EXPECT_EQ(p, (SmallPayload{9, 8}));
  p.pop_back();
  EXPECT_EQ(p, (SmallPayload{9}));
}

// ---------------------------------------------------------------------------
// Sharded rounds: the scenario sample
// ---------------------------------------------------------------------------

/// Engine-backed schedulers (the ones a shard count actually reaches).
constexpr SchedulerKind kEngineKinds[] = {SchedulerKind::kDistMisGbg,
                                          SchedulerKind::kDistMisGeneral,
                                          SchedulerKind::kRandomized};

TEST(ParallelEngine, AllSixFamiliesCovered) {
  // sample_scenarios cycles families; make coverage explicit so a future
  // sampler change can't silently shrink this suite's reach.
  const std::vector<Scenario> scenarios = sample_scenarios(18, 0x9a11e1, 24);
  std::vector<bool> seen(6, false);
  for (const Scenario& scenario : scenarios)
    seen[static_cast<std::size_t>(scenario.family)] = true;
  for (const GraphFamily family : kAllFamilies)
    EXPECT_TRUE(seen[static_cast<std::size_t>(family)])
        << "family not sampled: " << family_name(family);
}

// ---------------------------------------------------------------------------
// RunConfig: one execution environment reaches every engine
// ---------------------------------------------------------------------------

// An auditor attached through the RunConfig reaches the synchronous engine
// (DistMIS, distMIS-gen, randomized, repair) and the asynchronous one
// (DFS): it brackets the rounds or events of each run, and the audited
// result is byte-identical to the plain one.
TEST(RunConfig, AllocAuditReachesEveryEngine) {
  const Graph graph = generate_grid(5, 6);
  for (const SchedulerKind kind :
       {SchedulerKind::kDistMisGbg, SchedulerKind::kDistMisGeneral,
        SchedulerKind::kDfs, SchedulerKind::kRandomized}) {
    const ScheduleResult plain = run_scheduler(kind, graph, 21);
    AllocAudit audit;
    const ScheduleResult audited =
        run_scheduler(kind, graph, 21, {.audit = &audit});
    EXPECT_GT(audit.rounds(), 0u) << scheduler_name(kind);
    EXPECT_EQ(plain.coloring.raw(), audited.coloring.raw())
        << scheduler_name(kind);
    EXPECT_EQ(plain.rounds, audited.rounds) << scheduler_name(kind);
    EXPECT_EQ(plain.messages, audited.messages) << scheduler_name(kind);
    EXPECT_EQ(plain.async_time, audited.async_time) << scheduler_name(kind);
  }
  const ArcView view(graph);
  ArcColoring stale = greedy_coloring(view);
  for (ArcId a = 0; a < stale.num_arcs(); a += 3) stale.clear(a);
  const DistRepairResult plain = run_distributed_repair(graph, stale, 11);
  AllocAudit audit;
  const DistRepairResult audited =
      run_distributed_repair(graph, stale, 11, {.audit = &audit});
  EXPECT_GT(audit.rounds(), 0u);
  EXPECT_EQ(plain.coloring.raw(), audited.coloring.raw());
  EXPECT_EQ(plain.recolored_arcs, audited.recolored_arcs);
  EXPECT_EQ(plain.rounds, audited.rounds);
  EXPECT_EQ(plain.messages, audited.messages);
}

// ---------------------------------------------------------------------------
// Sharded state: byte-identical to serial for any shard count
// ---------------------------------------------------------------------------

TEST(ShardedEngine, ShardPlanPartitionsContiguouslyAndInvertsExactly) {
  for (const std::size_t n : {1u, 2u, 7u, 24u, 1000u}) {
    for (const std::size_t count : {1u, 2u, 4u, 8u}) {
      if (count > n) continue;
      const ShardPlan plan{n, count};
      std::size_t covered = 0;
      for (std::size_t s = 0; s < count; ++s) {
        ASSERT_EQ(plan.lo(s), covered) << "gap at shard " << s;
        ASSERT_LE(plan.lo(s), plan.hi(s));
        for (std::size_t v = plan.lo(s); v < plan.hi(s); ++v)
          ASSERT_EQ(plan.shard_of(static_cast<NodeId>(v)), s)
              << "n=" << n << " count=" << count << " v=" << v;
        covered = plan.hi(s);
      }
      EXPECT_EQ(covered, n);  // shards cover [0, n) exactly
    }
  }
}

// The tentpole contract: with engine *state* partitioned into contiguous
// shards, each run on its own thread — per-shard send lanes, ChannelTable
// slices, SoA protocol scratch — every engine-backed scheduler must stay
// byte-identical to the serial run across all six scenario families. The
// counts include 8 and 16 and one (32) above every sampled node count (at
// most 24), which runs capped at one node per shard. The probe lives in
// src/verify so other batteries can sweep it too.
TEST(ShardedEngine, ByteIdenticalToSerialForAnyShardCount) {
  const std::vector<Scenario> scenarios = sample_scenarios(18, 0x9a11e1, 24);
  constexpr std::size_t kShardCounts[] = {1, 2, 4, 8, 16, 32};
  for (const SchedulerKind kind : kEngineKinds) {
    const ScenarioCheckFn check = [&](const Scenario& scenario, std::size_t) {
      return check_shard_determinism(kind, scenario, kShardCounts);
    };
    const ScenarioSweep sweep = run_scenarios(scenarios, check, nullptr);
    EXPECT_EQ(sweep.checks, scenarios.size() * std::size(kShardCounts));
    EXPECT_TRUE(sweep.ok()) << sweep.failure_digest();
  }
}

// A crash-fault plan is an adversary channel: it must force the serial path
// even when a shard count is configured (mirrors the trace-seam check), and
// the faulted result must be byte-identical to the serial faulted run —
// crash drops included.
TEST(ShardedEngine, FaultPlanForcesSerialPathWithShardingConfigured) {
  const std::vector<Scenario> scenarios = sample_scenarios(6, 0xc7a54, 20);
  FaultSpec spec;
  spec.crash_fraction = 0.2;
  for (const Scenario& scenario : scenarios) {
    const Graph graph = materialize(scenario);
    DistMisOptions serial_options;
    serial_options.seed = scenario.seed;
    serial_options.faults = &spec;
    const ScheduleResult serial = run_dist_mis(graph, serial_options);
    DistMisOptions sharded_options = serial_options;
    sharded_options.shards = 4;
    const ScheduleResult sharded = run_dist_mis(graph, sharded_options);
    ASSERT_EQ(serial.coloring.raw(), sharded.coloring.raw())
        << repro_command(scenario, SchedulerKind::kDistMisGbg);
    EXPECT_EQ(serial.rounds, sharded.rounds);
    EXPECT_EQ(serial.messages, sharded.messages);
    EXPECT_EQ(serial.completed, sharded.completed);
    EXPECT_EQ(serial.faults.crash_drops, sharded.faults.crash_drops);
  }
  // The seam decision itself, stated directly on the engine: set_shards(4)
  // alone plans four shards, and an installed fault plan pins one.
  // The set never runs; it only gives the engine its node count.
  class InertSet final : public SyncProgramSet {
   public:
    explicit InertSet(std::size_t nodes) : nodes_(nodes) {}
    std::size_t size() const override { return nodes_; }
    void on_round(NodeId, SyncContext&, std::span<const Message>) override {}
    bool ready_for_phase_advance(NodeId) const override { return true; }
    void on_phase(NodeId, std::size_t) override {}
    bool finished(NodeId) const override { return true; }

   private:
    std::size_t nodes_;
  };
  const Graph graph = materialize(scenarios.front());
  InertSet none(graph.num_nodes());
  SyncEngine engine(graph, none);
  engine.set_shards(4);
  EXPECT_EQ(engine.planned_shards(), 4u);
  FaultPlan plan(spec, graph);
  engine.set_fault_plan(&plan);
  EXPECT_EQ(engine.planned_shards(), 1u);
}

TEST(ShardedEngine, ReliableWrapperRunsShardedAndMatchesSerial) {
  // The reliable wrapper is a program set over the set it hardens and
  // forwards the engine's shard count to it. With no fault spec nothing
  // forces the serial path, so every set-backed runner — DistMIS,
  // randomized and the distributed repair — really runs hardened and
  // sharded, and must still match the serial run byte-for-byte.
  const std::vector<Scenario> scenarios = sample_scenarios(4, 0xab1e, 16);
  constexpr std::size_t kShardCounts[] = {2, 4, 8};
  for (const Scenario& scenario : scenarios) {
    const Graph graph = materialize(scenario);
    for (const SchedulerKind kind :
         {SchedulerKind::kDistMisGbg, SchedulerKind::kRandomized}) {
      const ScheduleResult serial =
          run_scheduler(kind, graph, scenario.seed, {.reliable = true});
      for (const std::size_t shards : kShardCounts) {
        const ScheduleResult sharded = run_scheduler(
            kind, graph, scenario.seed, {.reliable = true, .shards = shards});
        ASSERT_EQ(serial.coloring.raw(), sharded.coloring.raw())
            << "shards=" << shards << " " << repro_command(scenario, kind);
        EXPECT_EQ(serial.rounds, sharded.rounds);
        EXPECT_EQ(serial.messages, sharded.messages);
      }
    }
    const ArcView view(graph);
    ArcColoring stale = greedy_coloring(view);
    for (ArcId a = 0; a < stale.num_arcs(); a += 3) stale.clear(a);
    const DistRepairResult serial = run_distributed_repair(
        graph, stale, scenario.seed, {.reliable = true});
    for (const std::size_t shards : kShardCounts) {
      const DistRepairResult sharded = run_distributed_repair(
          graph, stale, scenario.seed, {.reliable = true, .shards = shards});
      ASSERT_EQ(serial.coloring.raw(), sharded.coloring.raw())
          << "repair shards=" << shards << " family="
          << family_name(scenario.family) << " n=" << scenario.n
          << " density=" << scenario.density << " seed=" << scenario.seed;
      EXPECT_EQ(serial.recolored_arcs, sharded.recolored_arcs);
      EXPECT_EQ(serial.rounds, sharded.rounds);
      EXPECT_EQ(serial.messages, sharded.messages);
    }
  }
}

TEST(ShardedEngine, RepairMatchesSerialForExplicitShardCounts) {
  Rng rng(0x5eed);
  const Graph graph = generate_gnm(40, 110, rng);
  const ArcView view(graph);
  ArcColoring stale = greedy_coloring(view);
  for (ArcId a = 0; a < stale.num_arcs(); a += 3) stale.clear(a);
  const DistRepairResult serial = run_distributed_repair(graph, stale, 11);
  for (const std::size_t shards : {1u, 2u, 4u, 8u, 16u}) {
    const DistRepairResult sharded =
        run_distributed_repair(graph, stale, 11, {.shards = shards});
    ASSERT_EQ(serial.coloring.raw(), sharded.coloring.raw())
        << "shards=" << shards;
    EXPECT_EQ(serial.recolored_arcs, sharded.recolored_arcs);
    EXPECT_EQ(serial.rounds, sharded.rounds);
    EXPECT_EQ(serial.messages, sharded.messages);
  }
}

/// Every node broadcasts an order-sensitive digest of its inbox for
/// `rounds` rounds and finishes one round later, so a run ends with
/// nothing in flight; reset() rewinds it for another run on one engine.
class DigestSet final : public SyncProgramSet {
 public:
  DigestSet(std::size_t nodes, std::size_t rounds)
      : digest_(nodes, 0), done_(nodes, 0), rounds_(rounds) {}

  std::size_t size() const override { return digest_.size(); }
  void on_round(NodeId v, SyncContext& ctx,
                std::span<const Message> inbox) override {
    for (const Message& message : inbox)
      digest_[v] = digest_[v] * 31 + message.from * 7 +
                   static_cast<std::uint64_t>(message.data[0]);
    if (ctx.round() >= rounds_) {
      done_[v] = 1;
      return;
    }
    Message message;
    message.tag = 1;
    message.data = {static_cast<std::int64_t>((digest_[v] + v) % 1'000'003)};
    ctx.broadcast(std::move(message));
  }
  bool ready_for_phase_advance(NodeId) const override { return false; }
  void on_phase(NodeId, std::size_t) override {}
  bool finished(NodeId v) const override { return done_[v] != 0; }

  void reset() {
    std::fill(digest_.begin(), digest_.end(), std::uint64_t{0});
    std::fill(done_.begin(), done_.end(), char{0});
  }
  const std::vector<std::uint64_t>& digests() const { return digest_; }

 private:
  std::vector<std::uint64_t> digest_;
  std::vector<char> done_;
  std::size_t rounds_;
};

TEST(ShardedEngine, EngineReusableAcrossRunsAndShardCounts) {
  // One engine, many runs: a run must leave no residue in the engine —
  // lanes, channel slices, dirty buckets and wake buffers sized for one
  // shard count are recycled by the next run at any count, and each run's
  // team is joined before the next one starts.
  Rng rng(9);
  const Graph graph = generate_gnm(60, 180, rng);
  DigestSet set(graph.num_nodes(), 12);
  SyncEngine engine(graph, set);
  const SyncMetrics serial = engine.run();
  ASSERT_TRUE(serial.completed);
  const std::vector<std::uint64_t> expected = set.digests();
  for (const std::size_t shards : {3u, 3u, 8u, 2u, 0u}) {
    set.reset();
    engine.set_shards(shards);
    const SyncMetrics metrics = engine.run();
    EXPECT_EQ(metrics.rounds, serial.rounds) << shards << " shards";
    EXPECT_TRUE(metrics.completed) << shards << " shards";
    EXPECT_EQ(set.digests(), expected) << shards << " shards";
  }
}

// ---------------------------------------------------------------------------
// run_scenarios: sharded sweep determinism
// ---------------------------------------------------------------------------

TEST(RunScenarios, PooledSweepMatchesSerialIncludingFailureOrder) {
  const std::vector<Scenario> scenarios = sample_scenarios(40, 0xabcd, 16);
  // A synthetic check that fails on a scattered subset of indices with an
  // index-tagged message, so ordering mistakes are visible.
  const ScenarioCheckFn check = [](const Scenario& scenario,
                                   std::size_t index) {
    ScenarioOutcome outcome;
    outcome.checks = 2;
    if (index % 7 == 3)
      outcome.failures.push_back("fail@" + std::to_string(index) + " " +
                                 family_name(scenario.family));
    return outcome;
  };
  const ScenarioSweep serial = run_scenarios(scenarios, check, nullptr);
  EXPECT_EQ(serial.scenarios, scenarios.size());
  EXPECT_EQ(serial.checks, 2 * scenarios.size());
  ASSERT_FALSE(serial.ok());
  for (std::size_t threads : {2u, 8u}) {
    ThreadPool pool(threads);
    const ScenarioSweep pooled = run_scenarios(scenarios, check, &pool);
    EXPECT_EQ(pooled.scenarios, serial.scenarios);
    EXPECT_EQ(pooled.checks, serial.checks);
    EXPECT_EQ(pooled.failures, serial.failures);  // lowest index first
  }
  // The digest joins in the same (index) order.
  EXPECT_NE(serial.failure_digest().find("fail@3"), std::string::npos);
}

// The natural composition of the two parallel grains: a pooled sweep whose
// check runs a sharded engine. The engine's shard team is its own, started
// and joined inside each run, so it never waits on the sweep's pool —
// really sharded, same results, no hang.
TEST(RunScenarios, ShardedEngineInsidePooledSweepMatchesSerial) {
  const std::vector<Scenario> scenarios = sample_scenarios(8, 0x5eed, 18);
  ThreadPool pool(4);
  const ScenarioCheckFn nested = [&](const Scenario& scenario, std::size_t) {
    ScenarioOutcome outcome;
    const Graph graph = materialize(scenario);
    const ScheduleResult serial =
        run_scheduler_on_components(SchedulerKind::kDistMisGbg, graph, 7);
    const ScheduleResult sharded =
        run_scheduler(SchedulerKind::kDistMisGbg, graph, 7, {.shards = 4});
    ++outcome.checks;
    if (serial.coloring.raw() != sharded.coloring.raw() ||
        serial.messages != sharded.messages)
      outcome.failures.push_back("sharded run inside the sweep diverged");
    return outcome;
  };
  const ScenarioSweep sweep = run_scenarios(scenarios, nested, &pool);
  EXPECT_EQ(sweep.checks, scenarios.size());
  EXPECT_TRUE(sweep.ok()) << sweep.failure_digest();
}

TEST(RunScenarios, RealOracleSweepAgreesWithFuzzScheduler) {
  const std::vector<Scenario> scenarios = sample_scenarios(10, 0xf00d, 14);
  ThreadPool pool(4);
  const FuzzSummary serial =
      fuzz_scheduler(SchedulerKind::kDistMisGbg, scenarios);
  const FuzzSummary pooled =
      fuzz_scheduler(SchedulerKind::kDistMisGbg, scenarios, &pool);
  EXPECT_EQ(serial.scenarios, pooled.scenarios);
  ASSERT_EQ(serial.failures.size(), pooled.failures.size());
  for (std::size_t i = 0; i < serial.failures.size(); ++i)
    EXPECT_EQ(to_string(serial.failures[i]), to_string(pooled.failures[i]));
}

}  // namespace
}  // namespace fdlsp
