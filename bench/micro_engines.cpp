// Microbenchmarks for the simulation engines themselves: round dispatch
// overhead, message throughput, event-queue cost, and the performance-layer
// knobs: payload size across the SmallPayload inline/spill boundary, and
// sharded rounds at several shard counts (one thread per shard).
//
// tools/bench_smoke.sh runs this suite and commits BENCH_sim.json as the
// regression baseline; tools/ci.sh bench-compare diffs fresh runs against
// it with a tolerance band.
#include <benchmark/benchmark.h>
#include <sys/resource.h>

#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <string>

#include "algos/dfs_schedule.h"
#include "algos/dist_mis.h"
#include "graph/generators.h"
#include "sim/async_engine.h"
#include "sim/sync_engine.h"
#include "support/alloc_audit.h"
#include "support/rng.h"

namespace {

using namespace fdlsp;

/// Gossip for a fixed number of rounds: every node rebroadcasts each round,
/// carrying `words` int64s (words <= 4 stays inline in SmallPayload, more
/// spills to the heap).
class GossipSet final : public SyncProgramSet {
 public:
  GossipSet(std::size_t nodes, std::size_t rounds, std::size_t words = 1)
      : rounds_(rounds), words_(words), executed_(nodes, 0) {}
  std::size_t size() const override { return executed_.size(); }
  void on_round(NodeId v, SyncContext& ctx,
                std::span<const Message>) override {
    const std::size_t executed = ++executed_[v];
    Message message;
    message.tag = 1;
    for (std::size_t w = 0; w < words_; ++w)
      message.data.push_back(static_cast<std::int64_t>(executed + w));
    ctx.broadcast(std::move(message));
  }
  bool ready_for_phase_advance(NodeId) const override { return false; }
  void on_phase(NodeId, std::size_t) override {}
  bool finished(NodeId v) const override { return executed_[v] >= rounds_; }

 private:
  std::size_t rounds_;
  std::size_t words_;
  std::vector<std::size_t> executed_;  // rounds run, per node
};

/// Gossips 20 rounds on G(n, 4n) with `words`-word payloads on `shards`
/// engine shards (0: serial).
void gossip(benchmark::State& state, std::int64_t n, std::int64_t words,
            std::int64_t shards) {
  Rng rng(5);
  const Graph graph = generate_gnm(static_cast<std::size_t>(n),
                                   static_cast<std::size_t>(n) * 4, rng);
  for (auto _ : state) {
    GossipSet set(graph.num_nodes(), 20, static_cast<std::size_t>(words));
    SyncEngine engine(graph, set);
    engine.set_shards(static_cast<std::size_t>(shards));
    const SyncMetrics metrics = engine.run();
    benchmark::DoNotOptimize(metrics.messages);
    state.counters["msgs"] = static_cast<double>(metrics.messages);
  }
}

void BM_SyncEngineGossip(benchmark::State& state) {
  gossip(state, state.range(0), 1, 0);
}
BENCHMARK(BM_SyncEngineGossip)->Arg(100)->Arg(500);

/// Payload-size sweep across the SmallPayload boundary: 2 and 4 words are
/// inline (zero-alloc), 8 and 16 spill. Args: {nodes, words}.
void BM_SyncEngineGossipPayload(benchmark::State& state) {
  gossip(state, state.range(0), state.range(1), 0);
}
BENCHMARK(BM_SyncEngineGossipPayload)
    ->Args({200, 2})
    ->Args({200, 4})
    ->Args({200, 8})
    ->Args({200, 16});

/// Shard-count sweep of the round loop. Args: {nodes, shards}; shards 0
/// runs the serial engine, S > 1 runs S shards on S threads. Results are
/// byte-identical across the sweep (tests/engine_parallel_test.cpp); this
/// bench measures only the wall-time effect of sharding.
void BM_SyncEngineGossipShards(benchmark::State& state) {
  gossip(state, state.range(0), 2, state.range(1));
}
BENCHMARK(BM_SyncEngineGossipShards)
    ->Args({500, 0})
    ->Args({500, 2})
    ->Args({500, 4})
    ->Args({500, 8});

/// The paper-style UDG field: radius 0.5 and a side chosen for average
/// degree ~6 at every n, so the per-node work stays comparable across
/// sizes.
Graph paper_udg(std::size_t n) {
  const double radius = 0.5;
  const double side =
      std::sqrt(static_cast<double>(n) * 3.14159265 * radius * radius / 6.0);
  Rng rng(42);
  return generate_udg(n, side, radius, rng).graph;
}

/// End-to-end DistMIS on the paper UDG field. Args: {nodes, shards};
/// shards 0 runs serially, S > 1 runs S shards on S threads. This is the
/// headline row of EXPERIMENTS.md's engine-throughput table.
void BM_DistMisUdg(benchmark::State& state) {
  const auto shards = static_cast<std::size_t>(state.range(1));
  const Graph graph = paper_udg(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    AllocAudit audit;
    DistMisOptions options;
    options.variant = DistMisVariant::kGbg;
    options.seed = 42;
    options.shards = shards;
    options.audit = &audit;
    const ScheduleResult result = run_dist_mis(graph, options);
    benchmark::DoNotOptimize(result.num_slots);
    state.counters["msgs"] = static_cast<double>(result.messages);
    state.counters["rounds"] = static_cast<double>(result.rounds);
    // Steady-state allocation profile (support/alloc_audit.h): total
    // in-round allocations and the count of rounds that allocated at all.
    // Both are 0 under sanitizers (hooks compiled out); the regression
    // gate on these counters lives in tests/engine_alloc_test.cpp — here
    // they document the warm-up share next to the timing numbers. The
    // audit does not force the serial engine, so on sharded rows they
    // describe the sharded path.
    state.counters["allocs"] = static_cast<double>(audit.total_allocations());
    state.counters["alloc_rounds"] =
        static_cast<double>(audit.allocating_rounds());
  }
}
BENCHMARK(BM_DistMisUdg)
    ->Args({200, 0})
    ->Args({200, 2})
    ->Args({500, 0})
    ->Args({500, 2})
    ->Args({1000, 0})
    ->Args({1000, 2})
    ->Args({1000, 8})
    ->Unit(benchmark::kMillisecond);

/// Shard-scaling rows (DESIGN.md §14, EXPERIMENTS.md "Shard scaling"):
/// BM_DistMisUdg at scale, plus the peak RSS. Args: {nodes, shards}.
/// Registered from main()
/// according to FDLSP_BENCH_SCALE rather than statically, so the default
/// suite stays CI-sized: scale "1" (the default) runs the n=10^5 smoke at
/// 1 vs 2 shards, scale "full" runs the n=10^6 curve at 1/2/4/8 shards.
/// Both cap at one iteration — at these sizes a single run is seconds to
/// minutes and the sweep exists for the scaling *curve*, not ns precision.
///
/// Each shard runs on its own thread: shards beyond the core count still
/// partition state (and are byte-identical — the curve is about wall time
/// only), they just time-slice. peak_rss_mb is getrusage's
/// process-wide high-water mark, which is monotone across rows within one
/// binary run: the first row of a scale is the honest peak for that
/// configuration, later rows are lower bounds.
void BM_DistMisUdgSharded(benchmark::State& state) {
  BM_DistMisUdg(state);
  struct rusage usage {};
  if (getrusage(RUSAGE_SELF, &usage) == 0)
    state.counters["peak_rss_mb"] =
        static_cast<double>(usage.ru_maxrss) / 1024.0;
}

/// Ping-pong along a random ring for a fixed hop count.
class HopProgram final : public AsyncProgram {
 public:
  HopProgram(NodeId self, std::size_t n, std::size_t hops)
      : self_(self), n_(n), hops_(hops) {}
  void on_start(AsyncContext& ctx) override {
    if (self_ != 0) return;
    Message message;
    message.tag = 1;
    message.data = {0};
    ctx.send(1 % static_cast<NodeId>(n_), std::move(message));
  }
  void on_message(AsyncContext& ctx, Message& message) override {
    if (static_cast<std::size_t>(message.data[0]) >= hops_) return;
    Message next;
    next.tag = 1;
    next.data = {message.data[0] + 1};
    ctx.send((self_ + 1) % static_cast<NodeId>(n_), std::move(next));
  }
  bool finished() const override { return true; }

 private:
  NodeId self_;
  std::size_t n_;
  std::size_t hops_;
};

void BM_AsyncEngineRingHops(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const Graph ring = generate_cycle(n);
  for (auto _ : state) {
    std::vector<std::unique_ptr<AsyncProgram>> programs;
    for (NodeId v = 0; v < n; ++v)
      programs.push_back(std::make_unique<HopProgram>(v, n, 10'000));
    AsyncEngine engine(ring, std::move(programs), DelayModel::kUnit);
    benchmark::DoNotOptimize(engine.run().messages);
  }
}
BENCHMARK(BM_AsyncEngineRingHops)->Arg(64);

/// Headline row of EXPERIMENTS.md's "Async engine throughput" table:
/// DistMIS behind the α-synchronizer (sim/synchronizer.h) on the paper UDG.
/// Arg: node count. msgs/timer_events are the *engine's* event counts
/// (frames and polls, not DistMIS protocol messages) — the work the event
/// queue actually dispatches. The schedule is byte-identical to sync
/// DistMIS (tests/async_equivalence_test.cpp); this bench measures wall
/// time and the steady-state allocation profile.
void BM_AsyncDistMisUdg(benchmark::State& state) {
  const Graph graph = paper_udg(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    AllocAudit audit;
    AsyncMetrics engine_metrics;
    AsyncDistMisOptions options;
    options.variant = DistMisVariant::kGbg;
    options.seed = 42;
    options.audit = &audit;
    options.engine_metrics = &engine_metrics;
    const ScheduleResult result = run_dist_mis_async(graph, options);
    benchmark::DoNotOptimize(result.num_slots);
    state.counters["msgs"] = static_cast<double>(engine_metrics.messages);
    state.counters["timer_events"] =
        static_cast<double>(engine_metrics.timer_events);
    state.counters["allocs"] = static_cast<double>(audit.total_allocations());
    state.counters["alloc_rounds"] =
        static_cast<double>(audit.allocating_rounds());
  }
  struct rusage usage {};
  if (getrusage(RUSAGE_SELF, &usage) == 0)
    state.counters["peak_rss_mb"] =
        static_cast<double>(usage.ru_maxrss) / 1024.0;
}
BENCHMARK(BM_AsyncDistMisUdg)->Arg(1000)->Unit(benchmark::kMillisecond);

/// Timer-heavy row: reliable DFS under a bursty loss plan. Retransmit and
/// heartbeat timers dominate the event mix here, so this row exercises the
/// timer wheel the way the retransmission layer does in the soak harness.
void BM_AsyncReliableBurst(benchmark::State& state) {
  const auto rows = static_cast<std::size_t>(state.range(0));
  // A grid is connected by construction (DFS needs the token to reach every
  // node); rows x 20 keeps the row parameter a clean node-count dial.
  const Graph graph = generate_grid(rows, 20);
  FaultSpec spec;
  spec.drop_rate = 0.05;
  spec.burst_rate = 0.02;
  spec.seed = 11;
  for (auto _ : state) {
    AllocAudit audit;
    AsyncMetrics engine_metrics;
    DfsOptions options;
    options.seed = 7;
    options.faults = &spec;
    options.reliable = true;
    options.audit = &audit;
    options.engine_metrics = &engine_metrics;
    const ScheduleResult result = run_dfs_schedule(graph, options);
    benchmark::DoNotOptimize(result.num_slots);
    state.counters["msgs"] = static_cast<double>(engine_metrics.messages);
    state.counters["timer_events"] =
        static_cast<double>(engine_metrics.timer_events);
    state.counters["allocs"] = static_cast<double>(audit.total_allocations());
    state.counters["retransmits"] =
        static_cast<double>(result.transport.retransmits);
  }
  struct rusage usage {};
  if (getrusage(RUSAGE_SELF, &usage) == 0)
    state.counters["peak_rss_mb"] =
        static_cast<double>(usage.ru_maxrss) / 1024.0;
}
BENCHMARK(BM_AsyncReliableBurst)->Arg(15)->Unit(benchmark::kMillisecond);

}  // namespace

// Manual main so the scale rows can be registered conditionally on the
// FDLSP_BENCH_SCALE environment variable (see BM_DistMisUdgSharded). The
// statically BENCHMARK()-registered suite above is unaffected.
int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;

  const char* scale_env = std::getenv("FDLSP_BENCH_SCALE");
  const std::string scale = scale_env != nullptr ? scale_env : "1";
  auto* sharded = benchmark::RegisterBenchmark("BM_DistMisUdgSharded",
                                               BM_DistMisUdgSharded);
  sharded->Unit(benchmark::kMillisecond)->Iterations(1);
  if (scale == "full") {
    for (const long shards : {1, 2, 4, 8})
      sharded->Args({1'000'000, shards});
  } else {
    for (const long shards : {1, 2})
      sharded->Args({100'000, shards});
  }

  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
