// Tests for the synchronous LOCAL-model engine.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "graph/generators.h"
#include "sim/sync_engine.h"
#include "support/check.h"

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
  const Graph path = generate_path(3);
  IdleSet set(3, /*sender=*/0);
  SyncEngine engine(path, set);
  EXPECT_THROW(engine.run(10), contract_error);
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

TEST(SyncEngine, RequiresOneProgramPerNode) {
  const Graph path = generate_path(3);
  IdleSet set(1);
  EXPECT_THROW(SyncEngine(path, set), contract_error);
}

}  // namespace
}  // namespace fdlsp
