// Tests for the synchronous LOCAL-model engine.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <vector>

#include "graph/generators.h"
#include "sim/sync_engine.h"
#include "support/check.h"
#include "support/rng.h"

namespace fdlsp {
namespace {

/// Floods the maximum node id seen so far; node v finishes when it has been
/// stable for `diameter` rounds. Classic leader-election-by-flooding.
class MaxFloodSet final : public SyncProgramSet {
 public:
  MaxFloodSet(std::size_t nodes, std::size_t quiet_rounds_needed)
      : best_(nodes), quiet_(nodes, 0), quiet_needed_(quiet_rounds_needed) {
    for (NodeId v = 0; v < nodes; ++v) best_[v] = v;
  }

  std::size_t size() const override { return best_.size(); }

  void on_round(NodeId v, SyncContext& ctx,
                std::span<const Message> inbox) override {
    const NodeId before = best_[v];
    for (const Message& message : inbox)
      best_[v] = std::max(best_[v], static_cast<NodeId>(message.data[0]));
    if (ctx.round() == 0 || best_[v] != before) {
      Message message;
      message.tag = 1;
      message.data = {static_cast<std::int64_t>(best_[v])};
      ctx.broadcast(std::move(message));
      quiet_[v] = 0;
    } else {
      ++quiet_[v];
    }
  }

  bool ready_for_phase_advance(NodeId) const override { return true; }
  void on_phase(NodeId, std::size_t) override {}
  bool finished(NodeId v) const override {
    return quiet_[v] >= quiet_needed_;
  }

  NodeId best(NodeId v) const { return best_[v]; }

 private:
  std::vector<NodeId> best_;
  std::vector<std::size_t> quiet_;
  std::size_t quiet_needed_;
};

TEST(SyncEngine, FloodingConvergesToGlobalMax) {
  const Graph path = generate_path(8);
  MaxFloodSet set(8, 10);
  SyncEngine engine(path, set);
  const SyncMetrics metrics = engine.run();
  EXPECT_TRUE(metrics.completed);
  for (NodeId v = 0; v < 8; ++v) EXPECT_EQ(set.best(v), 7u);
  // The max id (node 7) must travel 7 hops: at least 7 rounds.
  EXPECT_GE(metrics.rounds, 7u);
  EXPECT_GT(metrics.messages, 0u);
}

/// Always votes ready; finishes after two phases.
class PhaseSet final : public SyncProgramSet {
 public:
  explicit PhaseSet(std::size_t nodes) : phase_(nodes, 0) {}

  std::size_t size() const override { return phase_.size(); }
  void on_round(NodeId, SyncContext&, std::span<const Message>) override {}
  bool ready_for_phase_advance(NodeId) const override { return true; }
  void on_phase(NodeId v, std::size_t new_phase) override {
    phase_[v] = new_phase;
  }
  bool finished(NodeId v) const override { return phase_[v] >= 2; }

 private:
  std::vector<std::size_t> phase_;
};

TEST(SyncEngine, BarrierAdvancesPhases) {
  const Graph path = generate_path(3);
  PhaseSet set(3);
  SyncEngine engine(path, set);
  const SyncMetrics metrics = engine.run(100);
  EXPECT_TRUE(metrics.completed);
  EXPECT_GE(metrics.phases, 2u);
}

/// Never votes, never finishes; node `sender` (if any) messages node 2
/// every round — two hops away on a path, so an illegal target.
class IdleSet final : public SyncProgramSet {
 public:
  explicit IdleSet(std::size_t nodes, NodeId sender = kNoNode)
      : nodes_(nodes), sender_(sender) {}

  std::size_t size() const override { return nodes_; }
  void on_round(NodeId v, SyncContext& ctx,
                std::span<const Message>) override {
    if (v != sender_) return;
    Message message;
    message.tag = 1;
    ctx.send(2, std::move(message));
  }
  bool ready_for_phase_advance(NodeId) const override { return false; }
  void on_phase(NodeId, std::size_t) override {}
  bool finished(NodeId) const override { return false; }

 private:
  std::size_t nodes_;
  NodeId sender_;
};

TEST(SyncEngine, RejectsNonNeighborSend) {
  // Node 7 of the path 0-1-...-7 messages node 2. On every shard count the
  // sender runs in the last shard — off the caller's thread whenever the
  // run is sharded — and run() must rethrow the contract_error on the
  // caller and return, its shard team joined.
  const Graph path = generate_path(8);
  for (const std::size_t shards : {0u, 2u, 4u, 8u}) {
    IdleSet set(8, /*sender=*/7);
    SyncEngine engine(path, set);
    engine.set_shards(shards);
    ASSERT_EQ(engine.planned_shards(), std::max<std::size_t>(shards, 1));
    EXPECT_THROW(engine.run(10), contract_error) << shards << " shards";
  }
}

TEST(SyncEngine, ShardCountIsCappedAtNodesAndAtMaxShards) {
  // Each planned shard past the first is a thread run() starts, so a huge
  // count must not reach the operating system. Nothing here runs.
  const Graph small = generate_path(5);
  IdleSet few(5);
  SyncEngine capped_at_nodes(small, few);
  capped_at_nodes.set_shards(1000);
  EXPECT_EQ(capped_at_nodes.planned_shards(), 5u);
  const Graph large = generate_path(5000);
  IdleSet many(5000);
  SyncEngine engine(large, many);
  for (const std::size_t shards :
       {std::size_t{5000}, SyncEngine::kMaxShards + 1}) {
    engine.set_shards(shards);
    EXPECT_EQ(engine.planned_shards(), SyncEngine::kMaxShards) << shards;
  }
  engine.set_shards(SyncEngine::kMaxShards);
  EXPECT_EQ(engine.planned_shards(), SyncEngine::kMaxShards);
}

TEST(SyncEngine, RoundCapStopsRunaway) {
  const Graph path = generate_path(2);
  IdleSet set(2);
  SyncEngine engine(path, set);
  const SyncMetrics metrics = engine.run(25);
  EXPECT_FALSE(metrics.completed);
  EXPECT_EQ(metrics.rounds, 25u);
}

TEST(SyncEngine, FinishedNodesStillRelayMessages) {
  // Retired DistMIS nodes must keep forwarding floods; the engine calls
  // finished nodes whenever their inbox is non-empty. Node 0 sends one
  // TTL'd message and finishes, nodes 1-2 are finished relays that echo
  // every message once, and node 3 waits for the flood.
  class RelaySet final : public SyncProgramSet {
   public:
    std::size_t size() const override { return 4; }
    void on_round(NodeId v, SyncContext& ctx,
                  std::span<const Message> inbox) override {
      if (v == 0) {
        if (sent_) return;
        sent_ = true;
        Message message;
        message.tag = 1;
        message.data = {3};
        ctx.broadcast(std::move(message));
      } else if (v == 3) {
        if (!inbox.empty()) got_it_ = true;
      } else {
        for (const Message& message : inbox) {
          if (message.data[0] > 0) {
            Message copy;
            copy.tag = message.tag;
            copy.data = {message.data[0] - 1};
            ctx.broadcast(std::move(copy));
          }
        }
      }
    }
    bool ready_for_phase_advance(NodeId v) const override { return v != 3; }
    void on_phase(NodeId, std::size_t) override {}
    bool finished(NodeId v) const override {
      if (v == 0) return sent_;
      if (v == 3) return got_it_;
      return true;
    }
    bool sent_ = false;
    bool got_it_ = false;
  };
  const Graph path = generate_path(4);
  RelaySet set;
  SyncEngine engine(path, set);
  const SyncMetrics metrics = engine.run(50);
  EXPECT_TRUE(metrics.completed);
  // The TTL'd flood crossed two *finished* relays to reach node 3.
  EXPECT_TRUE(set.got_it_);
}

TEST(SyncEngine, BarrierWaitsForInFlightMessages) {
  // A message sent right before everyone votes ready must be delivered in
  // the old phase, not swallowed by the barrier.
  class SendThenReadySet final : public SyncProgramSet {
   public:
    std::size_t size() const override { return 2; }
    void on_round(NodeId v, SyncContext& ctx,
                  std::span<const Message> inbox) override {
      received_[v] += inbox.size();
      if (ctx.round() == 0) {
        Message message;
        message.tag = 1;
        message.data = {0};
        ctx.broadcast(std::move(message));
      }
      if (received_[v] >= 1 && phase_[v] >= 1) done_[v] = true;
    }
    bool ready_for_phase_advance(NodeId) const override { return true; }
    void on_phase(NodeId v, std::size_t new_phase) override {
      phase_[v] = new_phase;
    }
    bool finished(NodeId v) const override { return done_[v]; }
    std::size_t received_[2] = {0, 0};
    std::size_t phase_[2] = {0, 0};
    bool done_[2] = {false, false};
  };
  const Graph path = generate_path(2);
  SendThenReadySet set;
  SyncEngine engine(path, set);
  const SyncMetrics metrics = engine.run(20);
  EXPECT_TRUE(metrics.completed);
  for (NodeId v = 0; v < 2; ++v) EXPECT_EQ(set.received_[v], 1u);
}

TEST(SyncEngine, ReusedEngineStartsFromAQuietNetwork) {
  // Every node of a 6-cycle broadcasts once in round 0 and finishes, so
  // each run ends with its 12 messages still in flight. Running the set
  // again on the same engine must count 12 messages again, not a running
  // total, and must not deliver the earlier run's mail in round 0.
  class BroadcastOnceSet final : public SyncProgramSet {
   public:
    std::size_t size() const override { return 6; }
    void on_round(NodeId v, SyncContext& ctx,
                  std::span<const Message> inbox) override {
      received_ += inbox.size();
      if (ctx.round() != 0) return;
      Message message;
      message.tag = 1;
      message.data = {static_cast<std::int64_t>(v)};
      ctx.broadcast(std::move(message));
      done_[v] = true;
    }
    bool ready_for_phase_advance(NodeId) const override { return false; }
    void on_phase(NodeId, std::size_t) override {}
    bool finished(NodeId v) const override { return done_[v]; }
    void reset() {
      received_ = 0;
      std::fill(std::begin(done_), std::end(done_), false);
    }
    std::size_t received_ = 0;
    bool done_[6] = {};
  };
  const Graph cycle = generate_cycle(6);
  BroadcastOnceSet set;
  SyncEngine engine(cycle, set);
  for (int run = 0; run < 3; ++run) {
    set.reset();
    const SyncMetrics metrics = engine.run(20);
    EXPECT_TRUE(metrics.completed) << "run " << run;
    EXPECT_EQ(metrics.rounds, 1u) << "run " << run;
    EXPECT_EQ(metrics.messages, 12u) << "run " << run;
    EXPECT_EQ(set.received_, 0u) << "run " << run << " inherited mail";
  }
}

TEST(SyncEngine, RequiresOneProgramPerNode) {
  const Graph path = generate_path(3);
  IdleSet set(1);
  EXPECT_THROW(SyncEngine(path, set), contract_error);
}

// --- Sleeping nodes (SyncContext::sleep_until) ---

/// One logged callback: on_round (round, mail count) or on_phase (phase,
/// kPhaseMark).
struct Call {
  std::size_t round;
  std::size_t mail;
  bool operator==(const Call&) const = default;
};
constexpr std::size_t kPhaseMark = ~std::size_t{0};

/// A scripted sleeper that logs every callback per node. By default a node
/// sleeps `nap` rounds after each call; a scripted step for (node, round)
/// instead sends one message, then sleeps until its wake round, and may
/// finish the node or vote for a phase advance. on_phase withdraws the vote.
class SleepySet final : public SyncProgramSet {
 public:
  struct Step {
    NodeId node;
    std::size_t round;
    std::size_t wake;
    NodeId send_to = kNoNode;
    bool finish = false;
    bool vote = false;
  };

  SleepySet(std::size_t nodes, std::size_t nap)
      : log_(nodes), finished_(nodes, 0), voted_(nodes, 0), nap_(nap) {}

  void script(Step step) { steps_.push_back(step); }

  std::size_t size() const override { return log_.size(); }
  void on_round(NodeId v, SyncContext& ctx,
                std::span<const Message> inbox) override {
    log_[v].push_back({ctx.round(), inbox.size()});
    for (const Step& step : steps_) {
      if (step.node != v || step.round != ctx.round()) continue;
      if (step.send_to != kNoNode) {
        Message message;
        message.tag = 1;
        ctx.send(step.send_to, std::move(message));
      }
      if (step.finish) finished_[v] = 1;
      if (step.vote) voted_[v] = 1;
      ctx.sleep_until(step.wake);
      return;
    }
    ctx.sleep_until(ctx.round() + nap_);
  }
  bool ready_for_phase_advance(NodeId v) const override {
    return voted_[v] != 0;
  }
  void on_phase(NodeId v, std::size_t new_phase) override {
    log_[v].push_back({new_phase, kPhaseMark});
    voted_[v] = 0;
  }
  bool finished(NodeId v) const override { return finished_[v] != 0; }

  const std::vector<Call>& log(NodeId v) const { return log_[v]; }

 private:
  std::vector<std::vector<Call>> log_;
  std::vector<char> finished_;
  std::vector<char> voted_;
  std::vector<Step> steps_;
  std::size_t nap_;
};

TEST(SyncEngineSleep, SleepingNodeIsSkipped) {
  const Graph path = generate_path(3);
  SleepySet set(3, /*nap=*/4);
  SyncEngine engine(path, set);
  const SyncMetrics metrics = engine.run(10);
  EXPECT_EQ(metrics.rounds, 10u);
  for (NodeId v = 0; v < 3; ++v)
    EXPECT_EQ(set.log(v), (std::vector<Call>{{0, 0}, {4, 0}, {8, 0}}));
}

TEST(SyncEngineSleep, NapOfOneRoundIsNoSleep) {
  const Graph path = generate_path(2);
  SleepySet set(2, /*nap=*/1);
  SyncEngine engine(path, set);
  engine.run(3);
  EXPECT_EQ(set.log(0), (std::vector<Call>{{0, 0}, {1, 0}, {2, 0}}));
}

TEST(SyncEngineSleep, MailWakesSleeperThatRound) {
  // Node 1 sleeps until round 10, but node 0's round-2 message is
  // delivered in round 3 and wakes it then.
  const Graph path = generate_path(2);
  SleepySet set(2, /*nap=*/10);
  set.script({.node = 0, .round = 0, .wake = 2});
  set.script({.node = 0, .round = 2, .wake = 20, .send_to = 1});
  SyncEngine engine(path, set);
  engine.run(12);
  EXPECT_EQ(set.log(0), (std::vector<Call>{{0, 0}, {2, 0}}));
  // After the mail wake it naps 10 rounds again, from round 3.
  EXPECT_EQ(set.log(1), (std::vector<Call>{{0, 0}, {3, 1}}));
}

TEST(SyncEngineSleep, StaleCalendarEntryNeverCausesACall) {
  // Node 1's round-0 sleep to 10 is cut short by mail in round 3; it then
  // sleeps to 15, so its entry for round 10 is stale and must not call it.
  // Node 2's sleep to 10 is cut short by node 1's mail in round 4, and it
  // re-sleeps to the same round 10: its live entry stands and it runs at
  // 10 exactly once.
  const Graph path = generate_path(3);
  SleepySet set(3, /*nap=*/10);
  set.script({.node = 0, .round = 0, .wake = 2});
  set.script({.node = 0, .round = 2, .wake = 30, .send_to = 1});
  set.script({.node = 1, .round = 0, .wake = 10});
  set.script({.node = 1, .round = 3, .wake = 15, .send_to = 2});
  set.script({.node = 1, .round = 15, .wake = 30});
  set.script({.node = 2, .round = 0, .wake = 10});
  set.script({.node = 2, .round = 4, .wake = 10});
  set.script({.node = 2, .round = 10, .wake = 30});
  SyncEngine engine(path, set);
  engine.run(20);
  EXPECT_EQ(set.log(1), (std::vector<Call>{{0, 0}, {3, 1}, {15, 0}}));
  EXPECT_EQ(set.log(2), (std::vector<Call>{{0, 0}, {4, 1}, {10, 0}}));
}

TEST(SyncEngineSleep, PhaseAdvanceWakesEveryNode) {
  // Everyone votes in round 0 and sleeps to 50. Nothing is in flight, so
  // round 1 advances the phase, which cancels every sleep: all nodes run
  // in round 1, then nap again.
  const Graph path = generate_path(3);
  SleepySet set(3, /*nap=*/50);
  for (NodeId v = 0; v < 3; ++v)
    set.script({.node = v, .round = 0, .wake = 50, .vote = true});
  SyncEngine engine(path, set);
  const SyncMetrics metrics = engine.run(10);
  EXPECT_EQ(metrics.phases, 1u);
  for (NodeId v = 0; v < 3; ++v)
    EXPECT_EQ(set.log(v),
              (std::vector<Call>{{0, 0}, {1, kPhaseMark}, {1, 0}}));
}

TEST(SyncEngineSleep, FinishedNodeRunsOnlyOnMail) {
  // Node 1 finishes in round 0 while promising to wake at 3: a finished
  // node ignores the promise and runs only when node 0's mail arrives.
  const Graph path = generate_path(2);
  SleepySet set(2, /*nap=*/100);
  set.script({.node = 1, .round = 0, .wake = 3, .finish = true});
  set.script({.node = 0, .round = 0, .wake = 5});
  set.script({.node = 0, .round = 5, .wake = 9, .send_to = 1});
  set.script({.node = 0, .round = 9, .wake = 50, .finish = true});
  SyncEngine engine(path, set);
  const SyncMetrics metrics = engine.run(20);
  EXPECT_TRUE(metrics.completed);
  EXPECT_EQ(metrics.rounds, 10u);
  EXPECT_EQ(set.log(1), (std::vector<Call>{{0, 0}, {6, 1}}));
}

/// Pseudo-random sleepers for the serial-vs-sharded check: at each call a
/// node folds its mail into a checksum and naps a hashed 0–6 rounds. Until
/// it has run three times in the current phase it also sends to a hashed
/// neighbor; after that it votes for the phase advance and stays quiet. It
/// finishes after a hashed number of calls (mail still wakes it).
class HashedSleepSet final : public SyncProgramSet {
 public:
  explicit HashedSleepSet(const Graph& graph)
      : graph_(graph),
        log_(graph.num_nodes()),
        sum_(graph.num_nodes(), 0),
        calls_in_phase_(graph.num_nodes(), 0) {}

  std::size_t size() const override { return log_.size(); }
  void on_round(NodeId v, SyncContext& ctx,
                std::span<const Message> inbox) override {
    log_[v].push_back({ctx.round(), inbox.size()});
    for (const Message& message : inbox)
      sum_[v] = sum_[v] * 31 + static_cast<std::uint64_t>(message.data[0]);
    const std::uint64_t h = mix(v, ctx.round());
    const auto neighbors = graph_.neighbors(v);
    if (!neighbors.empty() && calls_in_phase_[v] < 3) {
      Message message;
      message.tag = 1;
      message.data = {static_cast<std::int64_t>(h % 1000)};
      ctx.send(neighbors[(h >> 8) % neighbors.size()].to, std::move(message));
    }
    ++calls_in_phase_[v];
    ctx.sleep_until(ctx.round() + (h >> 24) % 7);
  }
  bool ready_for_phase_advance(NodeId v) const override {
    return calls_in_phase_[v] >= 3;
  }
  void on_phase(NodeId v, std::size_t new_phase) override {
    log_[v].push_back({new_phase, kPhaseMark});
    calls_in_phase_[v] = 0;
  }
  bool finished(NodeId v) const override {
    return log_[v].size() >= 12 + v % 5;
  }

  const std::vector<Call>& log(NodeId v) const { return log_[v]; }
  std::uint64_t sum(NodeId v) const { return sum_[v]; }

 private:
  static std::uint64_t mix(NodeId v, std::size_t round) {
    std::uint64_t x = (static_cast<std::uint64_t>(v) << 32) ^ round;
    x *= 0x9e3779b97f4a7c15ULL;
    return x ^ (x >> 29);
  }

  const Graph& graph_;
  std::vector<std::vector<Call>> log_;
  std::vector<std::uint64_t> sum_;
  std::vector<std::size_t> calls_in_phase_;
};

TEST(SyncEngineSleep, ShardedRunsMatchSerialCallForCall) {
  Rng rng(5);
  const Graph graph = generate_gnm(100, 250, rng);
  HashedSleepSet serial(graph);
  SyncEngine serial_engine(graph, serial);
  const SyncMetrics base = serial_engine.run(200);
  ASSERT_TRUE(base.completed);
  ASSERT_GT(base.phases, 1u);
  for (const std::size_t shards : {2u, 4u, 8u}) {
    HashedSleepSet sharded(graph);
    SyncEngine engine(graph, sharded);
    engine.set_shards(shards);
    ASSERT_EQ(engine.planned_shards(), shards);
    const SyncMetrics metrics = engine.run(200);
    EXPECT_EQ(metrics.rounds, base.rounds) << shards << " shards";
    EXPECT_EQ(metrics.messages, base.messages) << shards << " shards";
    EXPECT_EQ(metrics.phases, base.phases) << shards << " shards";
    EXPECT_EQ(metrics.completed, base.completed) << shards << " shards";
    for (NodeId v = 0; v < graph.num_nodes(); ++v) {
      ASSERT_EQ(sharded.log(v), serial.log(v)) << "node " << v << ", "
                                               << shards << " shards";
      ASSERT_EQ(sharded.sum(v), serial.sum(v)) << "node " << v << ", "
                                               << shards << " shards";
    }
  }
}

}  // namespace
}  // namespace fdlsp
