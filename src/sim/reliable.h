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
// captures, frames, and schedules.
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
// the retransmission window, sweeping due peers every outer round. Frames
// carry their inner round number, receivers buffer them per peer, and the
// inner inbox for round k is assembled — sorted by (peer, sequence) for
// determinism — once the window guarantees every round-k frame has landed.
// A frame surfacing after its assembly point would mean the window math is
// wrong and fails loudly.
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
#include <memory>
#include <vector>

#include "sim/async_engine.h"
#include "sim/fault.h"
#include "sim/sync_engine.h"
#include "sim/transport.h"

namespace fdlsp {

/// Reliable-delivery wrapper for the synchronous engine (round dilation).
class ReliableSyncProgram final : public SyncProgram {
 public:
  /// `spec` must be the spec of the FaultPlan installed on the engine: the
  /// dilation factor and the detector budgets are derived from its loss
  /// bounds.
  ReliableSyncProgram(std::unique_ptr<SyncProgram> inner,
                      const FaultSpec& spec);

  /// Outer rounds per inner round: the retransmission window sized so that
  /// bounded per-channel loss (i.i.d. + PRR + burst budgets), every finite
  /// churn/outage window, and one suspect/probe/retrust cycle cannot delay
  /// a frame past its assembly point.
  static std::size_t round_dilation(const FaultSpec& spec);

  /// The wrapped program (result extraction after a run).
  const SyncProgram& inner() const noexcept { return *inner_; }

  /// Transport-layer work counters for this node.
  const TransportStats& transport_stats() const noexcept { return stats_; }

  /// Peers this node's detector ever moved to kSuspected, ascending.
  std::vector<NodeId> suspected_peers() const { return ever_suspected(peers_); }

  void on_round(SyncContext& ctx, std::span<const Message> inbox) override;
  bool ready_for_phase_advance() const override;
  void on_phase(std::size_t new_phase) override;
  bool finished() const override;

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

  void capture_send(SyncContext& ctx, NodeId to, const Message& message);
  void handle_frame(PeerState& state, const Message& message);
  void sweep(SyncContext& ctx, std::size_t round);
  std::size_t backoff_interval(const SyncContext& ctx, const PeerState& state);
  bool channels_idle() const;

  std::unique_ptr<SyncProgram> inner_;
  std::size_t dilation_;
  TransportBudgets budgets_;
  std::size_t next_inner_round_ = 0;  // next inner round to execute
  std::vector<PeerState> peers_;      // sorted by peer id
  std::vector<NodeId> ack_due_;       // peers to ack this round
  TransportStats stats_;
};

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

/// Hardens every program of a per-node vector with the synchronous wrapper.
/// `spec` must be the spec of the FaultPlan the engine will run under.
/// Returns round_dilation(spec), the factor the run's round budget scales
/// by.
std::size_t wrap_reliable(std::vector<std::unique_ptr<SyncProgram>>& programs,
                          const FaultSpec& spec);

/// Hardens every program of a per-node vector with the asynchronous wrapper.
void wrap_reliable(std::vector<std::unique_ptr<AsyncProgram>>& programs,
                   const FaultSpec& spec);

/// After a run over wrap_reliable'd programs: sums every node's transport
/// counters into `stats` and, when `suspected` is non-null, stores the
/// union of the nodes' suspicions there, sorted and unique.
void collect_transport(const SyncEngine& engine, std::size_t nodes,
                       TransportStats& stats, std::vector<NodeId>* suspected);
void collect_transport(const AsyncEngine& engine, std::size_t nodes,
                       TransportStats& stats, std::vector<NodeId>* suspected);

}  // namespace fdlsp
