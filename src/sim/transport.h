// Engine-free core of the reliable transport (sim/reliable.h).
//
// Both reliable wrappers run the same per-peer protocol and differ only in
// pacing: the synchronous one counts outer rounds, the asynchronous one arms
// engine timers. Everything else lives here, once: the wire codec, the
// sequence-number and cumulative-ack bookkeeping, the pending (unacked) and
// parked (held while suspected) frame queues, the trusted -> suspected ->
// dead failure detector, and the budgets it derives from a FaultSpec. No
// engine type appears in this file, so the detector's budget argument
// (DESIGN.md §15) is unit-tested without a simulation
// (tests/transport_peer_test.cpp).
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "sim/fault.h"
#include "sim/message.h"

namespace fdlsp {

/// Wire tags of the wrapper protocol. Inner tags travel inside the frame
/// payload, so the wrapped program's own tags can never collide with these.
inline constexpr std::int32_t kReliableFrameTag = 0x52464C46;      // "RFLF"
inline constexpr std::int32_t kReliableAckTag = 0x52464C41;        // "RFLA"
inline constexpr std::int32_t kReliableHeartbeatTag = 0x52464C48;  // "RFLH"

/// Heartbeat cadence while a peer is suspected: outer rounds on the
/// synchronous wrapper, time units on the asynchronous one.
inline constexpr std::size_t kProbeInterval = 4;

/// Frames `original` for the wire into `frame`, reusing its buffer:
/// [checksum, seq, inner_round, orig_tag, payload...]. The checksum is keyed
/// by the directed channel (from, to).
void make_frame_into(Message& frame, NodeId from, NodeId to, std::int64_t seq,
                     std::int64_t inner_round, const Message& original);

/// Restores the wrapped message from a verified frame into `original`,
/// reusing its buffer.
void unframe_into(Message& original, const Message& frame);

/// An ack or heartbeat (`tag`) carrying a cumulative ack:
/// [checksum, cumulative].
Message make_control(std::int32_t tag, NodeId from, NodeId to,
                     std::int64_t cumulative);

/// True iff a wrapper-protocol message addressed to `self` arrived intact.
/// Corruption preserves payload sizes, so a malformed size or an unknown tag
/// is a contract error; a checksum mismatch returns false and the message
/// is discarded like a drop.
bool wire_intact(NodeId self, const Message& message);

/// Per-peer verdict of the failure detector.
enum class PeerHealth : std::uint8_t {
  kTrusted,    ///< heard from recently enough; data flows normally
  kSuspected,  ///< unheard past the loss budget; data parked, probing
  kDead,       ///< probe budget exhausted too; traffic abandoned
};

/// Counters of one wrapper's transport-layer work during a run. The run
/// functions aggregate them across nodes into ScheduleResult::transport.
struct TransportStats {
  std::uint64_t retransmits = 0;  ///< data frames re-sent
  std::uint64_t probes = 0;       ///< heartbeat probes sent while suspected
  std::uint64_t suspicions = 0;   ///< trusted -> suspected transitions
  std::uint64_t retrusts = 0;     ///< suspected -> trusted recoveries
  std::uint64_t abandoned = 0;    ///< frames dropped on a dead peer
  double max_backoff = 0.0;       ///< largest retransmit interval reached

  void merge(const TransportStats& other) {
    retransmits += other.retransmits;
    probes += other.probes;
    suspicions += other.suspicions;
    retrusts += other.retrusts;
    abandoned += other.abandoned;
    if (other.max_backoff > max_backoff) max_backoff = other.max_backoff;
  }
};

/// Detector budgets derived from the FaultSpec the engine runs under.
struct TransportBudgets {
  /// Worst-case failed deliveries on ONE directed channel: the i.i.d.+PRR
  /// cap plus the per-edge burst budget when bursts are armed.
  std::size_t one_way = 0;
  /// Worst-case rounds/time a channel can sit inside down windows: one
  /// churn window plus every region disc that can cover the edge.
  std::size_t stall = 0;
  std::size_t suspect_after = 0;  ///< failed attempts before kSuspected
  std::size_t probe_budget = 0;   ///< heartbeats before kDead
};

TransportBudgets transport_budgets(const FaultSpec& spec);

/// One outbound frame awaiting its cumulative ack.
struct PendingFrame {
  std::int64_t seq;
  Message frame;               // fully framed, ready to resend
  double sent_at = 0.0;        // first transmission (async RTT sampling)
  bool retransmitted = false;  // Karn's rule: no RTT sample once resent
};

/// What a due retransmit/probe deadline asks the wrapper to put on the wire.
enum class PeerStep : std::uint8_t {
  kNone,        ///< nothing: no traffic, dead, or just declared dead
  kRetransmit,  ///< resend every pending frame (a failed attempt)
  kSuspect,     ///< just suspected (a failed attempt): send a heartbeat
  kProbe,       ///< still suspected: send another heartbeat
};

/// One peer's half of the reliable transport: sequence numbers, the pending
/// and parked frames, and the failure detector. The wrappers derive their
/// per-peer state from it and add only pacing and inbound ordering.
class TransportPeer {
 public:
  explicit TransportPeer(NodeId peer) : peer_(peer) {}

  NodeId peer() const noexcept { return peer_; }
  PeerHealth health() const noexcept { return health_; }
  /// True once the detector has moved this peer to kSuspected.
  bool ever_suspected() const noexcept { return ever_suspected_; }
  /// Sequence number the next outbound message will carry.
  std::int64_t next_seq() const noexcept { return next_seq_; }
  /// Highest cumulative ack received.
  std::int64_t acked() const noexcept { return acked_; }
  /// Highest contiguous inbound sequence number accepted.
  std::int64_t received() const noexcept { return received_; }
  /// Retransmit deadlines since the peer was last heard.
  std::size_t fails() const noexcept { return fails_; }
  /// Unacked frames in flight, seq ascending.
  std::span<const PendingFrame> pending() const noexcept { return pending_; }
  /// Frames shelved while the peer is suspected, seq ascending.
  std::span<const PendingFrame> parked() const noexcept { return parked_; }
  bool idle() const noexcept { return pending_.empty() && parked_.empty(); }

  // The per-message paths below are defined in the class so the wrappers'
  // handlers compile them in.

  /// Consumes the next outbound sequence number and returns it — or 0 for a
  /// dead peer, whose message is counted abandoned and must not be framed.
  std::int64_t stamp(TransportStats& stats) {
    const std::int64_t seq = next_seq_++;
    if (health_ != PeerHealth::kDead) return seq;
    ++stats.abandoned;
    return 0;
  }

  /// Queues the frame stamp() numbered: pending when trusted (returns true;
  /// the caller transmits it now), parked when suspected (returns false).
  bool queue(PendingFrame frame) {
    const bool trusted = health_ != PeerHealth::kSuspected;
    (trusted ? pending_ : parked_).push_back(std::move(frame));
    return trusted;
  }

  /// Accepts inbound `seq` iff it is the next in order.
  bool accept(std::int64_t seq) {
    if (seq != received_ + 1) return false;
    received_ = seq;
    return true;
  }

  /// Any intact message from the peer proves it alive: resets the failure
  /// count and, for a suspected peer, re-trusts it — parked frames move back
  /// to pending, marked retransmitted (they waited out the suspicion, so
  /// their acks must not feed an RTT estimate). Returns true on a re-trust:
  /// the caller resumes the pending traffic. kDead is terminal.
  bool heard(TransportStats& stats) {
    fails_ = 0;
    if (health_ != PeerHealth::kSuspected) return false;
    health_ = PeerHealth::kTrusted;
    ++stats.retrusts;
    pending_ = std::move(parked_);
    parked_.clear();
    for (PendingFrame& frame : pending_) frame.retransmitted = true;
    return true;
  }

  /// Absorbs an ack or heartbeat carrying `cumulative`: first drops the
  /// frames it covers from pending and parked alike (into `recycle` when
  /// non-null, so buffers circulate), then calls heard() — so a re-trust
  /// never resumes a frame the peer already acked. Returns heard()'s
  /// verdict.
  bool ack(std::int64_t cumulative, TransportStats& stats,
           std::vector<Message>* recycle) {
    if (cumulative > acked_) {
      acked_ = cumulative;
      drop_acked(pending_, cumulative, recycle);
      drop_acked(parked_, cumulative, recycle);
    }
    return heard(stats);
  }

  /// The peer's retransmit/probe deadline fired: advances the detector and
  /// says what to send. Counts retransmits, probes, suspicions, and — on the
  /// kDead transition — every pending and parked frame as abandoned.
  PeerStep on_deadline(const TransportBudgets& budgets, TransportStats& stats);

 private:
  // fdlsp-lint: hot — per-ack steady-state path, no allocator traffic
  static void drop_acked(std::vector<PendingFrame>& frames,
                         std::int64_t cumulative,
                         std::vector<Message>* recycle) {
    // Frames are seq-ascending, so the acked ones are a prefix; reclaim
    // their buffers before the erase destroys the husks.
    auto covered = frames.begin();
    while (covered != frames.end() && covered->seq <= cumulative) {
      if (recycle != nullptr) recycle->push_back(std::move(covered->frame));
      ++covered;
    }
    frames.erase(frames.begin(), covered);
  }

  NodeId peer_;
  PeerHealth health_ = PeerHealth::kTrusted;
  bool ever_suspected_ = false;
  std::int64_t next_seq_ = 1;
  std::int64_t acked_ = 0;
  std::int64_t received_ = 0;
  std::size_t fails_ = 0;
  std::size_t probes_sent_ = 0;  // heartbeats since this suspicion began
  std::vector<PendingFrame> pending_;
  std::vector<PendingFrame> parked_;
};

/// A buffer for the next outbound frame: a recycled one from `pool` (which
/// TransportPeer::ack refills with acked frames) when there is one, so its
/// spilled capacity is reused, otherwise a fresh one. Once every channel
/// has seen its largest frame, framing allocates nothing.
// fdlsp-lint: hot — per-frame steady-state path, no allocator traffic
inline Message take_frame(std::vector<Message>& pool) {
  if (pool.empty()) return Message{};
  Message frame = std::move(pool.back());
  pool.pop_back();
  return frame;
}

/// Finds `peer` in a table of TransportPeer-derived states sorted by peer
/// id, inserting a fresh state on first contact. Insertion invalidates
/// references into the table.
template <typename State>
State& peer_state(std::vector<State>& peers, NodeId peer) {
  auto it = std::lower_bound(
      peers.begin(), peers.end(), peer,
      [](const State& state, NodeId id) { return state.peer() < id; });
  if (it == peers.end() || it->peer() != peer)
    it = peers.insert(it, State(peer));
  return *it;
}

/// Peers of a sorted table the detector ever suspected, ascending.
template <typename State>
std::vector<NodeId> ever_suspected(const std::vector<State>& peers) {
  std::vector<NodeId> suspected;
  for (const State& state : peers)
    if (state.ever_suspected()) suspected.push_back(state.peer());
  return suspected;
}

}  // namespace fdlsp
