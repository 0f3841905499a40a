// Ack/retransmit hardening: reliable-delivery wrappers for both engines.
//
// A FaultPlan (sim/fault.h) with drop/duplicate/corrupt/burst rates breaks
// the perfect-channel assumption every algorithm in src/algos is written
// against. These wrappers restore it *inside the protocol stack*, the way a
// deployment would: each original message is framed with a checksum and a
// per-peer sequence number, retransmitted until cumulatively acked, verified
// and deduplicated on receipt, and handed to the wrapped program in order.
// The wrapped program is unchanged — it talks through a reframed context
// (SyncContext::reframed / AsyncContext::reframed) whose sends the wrapper
// captures, frames, and schedules. The synchronous wrapper is itself a
// program set (ReliableSyncSet) over the set it hardens; the asynchronous
// one wraps each node's program (ReliableAsyncProgram, wrap_reliable).
//
// Why this terminates under a FaultPlan: losses per channel are bounded
// (FaultSpec::max_losses_per_channel i.i.d.+PRR, FaultSpec::burst_cap for
// bursts) and link-down/region-outage windows are finite, so a
// retransmitted frame is delivered within a computable window; see
// round_dilation() below. A peer silent past every such window is
// suspected, probed, and finally declared dead by the failure detector
// both wrappers share (TransportPeer, sim/transport.h), which also owns the
// codec, the sequence/ack bookkeeping, and the pending and parked frames.
// Suspicions are exported (suspected_peers) so the verify layer can hold
// the detector to completeness and accuracy.
//
// Each wrapper adds only pacing and inbound ordering. Retransmits back off
// exponentially with a deterministic jitter hashed from (self, peer,
// attempt), so a burst does not trigger a synchronized retransmit storm and
// the paced run stays reproducible.
//
// Synchronous wrapper — round dilation. Lock-step rounds are the engine's
// semantic, so reliability must preserve "all round-k messages arrive
// before round k+1". The wrapper runs inner round k at outer round k*R
// (R = round_dilation(spec)) and uses the R-1 outer rounds in between as
// the retransmission window, sweeping due peers. A node with nothing due
// sleeps (SyncContext::sleep_until) until the next window boundary or its
// earliest retransmit/probe deadline, so the engine calls it only on mail
// and on those rounds — a few calls per window instead of R. Frames
// carry their inner round number, receivers buffer them per peer, and the
// inner inbox for round k is assembled — sorted by (peer, sequence) for
// determinism — once the window guarantees every round-k frame has landed.
// A frame surfacing after its assembly point would mean the window math is
// wrong and fails loudly. Each node's transport state lives in one slot of
// a node-indexed vector that only that node's callbacks touch, so the
// hardened set shards exactly like the set it wraps: the wrapper forwards
// prepare_shards, and the reframed context keeps the engine's shard().
//
// Asynchronous wrapper — timer retransmit. Unacked frames are retransmitted
// on a timer (AsyncContext::set_timer) whose RTO derives from a per-peer
// smoothed RTT (Karn's rule: retransmitted frames contribute no sample)
// scaled by an EWMA loss estimate. Out-of-order arrivals are buffered and
// released to the inner program in sequence order. Timer cookies < 0 are
// reserved for the wrapper; inner programs that use timers must stick to
// cookies >= 0 and get them forwarded untouched.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "sim/async_engine.h"
#include "sim/fault.h"
#include "sim/run_config.h"
#include "sim/sync_engine.h"
#include "sim/transport.h"

namespace fdlsp {

/// Reliable-delivery wrapper for the synchronous engine (round dilation):
/// a program set that hardens every node of an inner set.
class ReliableSyncSet final : public SyncProgramSet {
 public:
  /// `inner` is not owned and must outlive the wrapper. `spec` must be the
  /// spec of the FaultPlan installed on the engine: the dilation factor
  /// and the detector budgets are derived from its loss bounds.
  ReliableSyncSet(SyncProgramSet& inner, const FaultSpec& spec);

  /// Outer rounds per inner round: the retransmission window sized so that
  /// bounded per-channel loss (i.i.d. + PRR + burst budgets), every finite
  /// churn/outage window, and one suspect/probe/retrust cycle cannot delay
  /// a frame past its assembly point.
  static std::size_t round_dilation(const FaultSpec& spec);

  /// This wrapper's dilation: the factor a run's round budget scales by.
  std::size_t round_dilation() const noexcept { return dilation_; }

  /// Transport-layer work counters summed over every node.
  TransportStats transport_stats() const;

  /// Peers any node's detector ever moved to kSuspected, sorted and unique.
  std::vector<NodeId> suspected_peers() const;

  std::size_t size() const override { return nodes_.size(); }
  void prepare_shards(std::size_t shards) override {
    inner_->prepare_shards(shards);
  }
  void on_round(NodeId v, SyncContext& ctx,
                std::span<const Message> inbox) override;
  bool ready_for_phase_advance(NodeId v) const override;
  void on_phase(NodeId v, std::size_t new_phase) override;
  bool finished(NodeId v) const override;

 private:
  struct BufferedFrame {
    std::int64_t inner_round;
    Message original;  // unframed, from/tag/data restored
  };
  struct PeerState : TransportPeer {
    using TransportPeer::TransportPeer;
    std::size_t next_retx = 0;  // outer round of the next retransmit/probe
    std::vector<BufferedFrame> buffered;  // awaiting inner-round assembly
  };
  /// One node's transport state; touched only by that node's callbacks.
  struct NodeState {
    std::size_t next_inner_round = 0;  // next inner round to execute
    std::vector<PeerState> peers;      // sorted by peer id
    std::vector<NodeId> ack_due;       // peers to ack this round
    std::vector<Message> assembled;    // inner inbox; capacity recycled
    TransportStats stats;
    // No unacked, shelved or buffered frames (channels_idle), recomputed
    // at the end of on_round: every change to a node's transport state
    // happens inside its own on_round, and a node starts with no peers.
    bool idle = true;
  };

  void capture_send(SyncContext& ctx, NodeId to, const Message& message);
  void sweep(SyncContext& ctx, NodeState& node, std::size_t round);
  void run_inner(NodeId v, SyncContext& ctx, NodeState& node);
  static void handle_frame(NodeState& node, PeerState& state,
                           const Message& message);
  static std::size_t backoff_interval(const SyncContext& ctx, NodeState& node,
                                      const PeerState& state);
  static bool channels_idle(const NodeState& node);

  SyncProgramSet* inner_;
  std::size_t dilation_;
  TransportBudgets budgets_;
  std::vector<NodeState> nodes_;  // indexed by node id
};

/// What driving one program set through a synchronous run reports.
struct SyncSetRun {
  SyncMetrics metrics;
  bool faulted = false;           ///< a FaultPlan was installed
  TransportStats transport;       ///< summed over nodes; hardened runs only
  std::vector<NodeId> suspected;  ///< sorted and unique; hardened runs only
};

/// Drives `set` through one synchronous scheduling run: hardens it with a
/// ReliableSyncSet when `run.reliable`, installs `run` on a SyncEngine, and
/// runs at most `max_rounds` rounds of the set (outer rounds, when
/// hardened, scale by the wrapper's dilation).
SyncSetRun drive_sync_set(const Graph& graph, SyncProgramSet& set,
                          const RunConfig& run, std::size_t max_rounds);

/// The drive step of the synchronous runners (run_dist_mis,
/// run_randomized, run_distributed_repair): drive_sync_set unless a
/// harness passes its own, e.g. to wrap the set the engine drives.
using SyncSetDriver = std::function<SyncSetRun(
    const Graph&, SyncProgramSet&, const RunConfig&, std::size_t)>;

/// Reliable-delivery wrapper for the asynchronous engine (timer retransmit).
class ReliableAsyncProgram final : public AsyncProgram {
 public:
  /// `spec` must be the spec of the FaultPlan installed on the engine: the
  /// detector budgets are derived from its loss bounds.
  ReliableAsyncProgram(std::unique_ptr<AsyncProgram> inner,
                       const FaultSpec& spec);

  /// The wrapped program (result extraction after a run).
  const AsyncProgram& inner() const noexcept { return *inner_; }

  /// Transport-layer work counters for this node.
  const TransportStats& transport_stats() const noexcept { return stats_; }

  /// Peers this node's detector ever moved to kSuspected, ascending.
  std::vector<NodeId> suspected_peers() const { return ever_suspected(peers_); }

  void on_start(AsyncContext& ctx) override;
  void on_message(AsyncContext& ctx, Message& message) override;
  void on_timer(AsyncContext& ctx, std::int64_t cookie) override;
  bool finished() const override;

 private:
  struct ReorderedFrame {
    std::int64_t seq;
    Message original;
  };
  struct PeerState : TransportPeer {
    using TransportPeer::TransportPeer;
    double srtt = 0.0;      // smoothed RTT (0 until first sample)
    double loss_hat = 0.0;  // EWMA loss estimate driving the RTO
    bool timer_armed = false;
    std::vector<ReorderedFrame> reordered;  // accepted out of order
  };

  void capture_send(AsyncContext& ctx, NodeId to, const Message& message);
  void handle_frame(AsyncContext& ctx, const Message& message);
  void handle_ack(AsyncContext& ctx, PeerState& state,
                  std::int64_t cumulative);
  void resume(AsyncContext& ctx, PeerState& state);
  void arm_timer(AsyncContext& ctx, PeerState& state, double delay);
  double retransmit_interval(const AsyncContext& ctx, const PeerState& state);
  void deliver_in_order(AsyncContext& ctx, NodeId peer, Message& original);
  Message take_frame();
  void recycle_frame(Message&& frame);

  std::unique_ptr<AsyncProgram> inner_;
  TransportBudgets budgets_;
  std::vector<PeerState> peers_;  // sorted by peer id
  /// Retired frame buffers, recycled into new frames: once every channel has
  /// seen its largest frame, framing allocates nothing (the buffers just
  /// circulate between the pool and the per-peer pending lists).
  std::vector<Message> frame_pool_;
  /// Reused for every in-order unframe; its spilled capacity survives
  /// between deliveries. Safe to share across peers: dispatch is serial and
  /// the inner handler finishes with the message before the next frame.
  Message unframe_scratch_;
  TransportStats stats_;
};

/// Hardens every program of a per-node vector with the asynchronous wrapper.
/// `spec` must be the spec of the FaultPlan the engine will run under.
void wrap_reliable(std::vector<std::unique_ptr<AsyncProgram>>& programs,
                   const FaultSpec& spec);

/// After a run over wrap_reliable'd programs: sums every node's transport
/// counters into `stats` and, when `suspected` is non-null, stores the
/// union of the nodes' suspicions there, sorted and unique.
void collect_transport(const AsyncEngine& engine, std::size_t nodes,
                       TransportStats& stats, std::vector<NodeId>* suspected);

}  // namespace fdlsp
