#include "sim/reliable.h"

#include <algorithm>
#include <limits>
#include <optional>
#include <utility>

#include "support/check.h"
#include "support/rng.h"

namespace fdlsp {

namespace {

/// Deterministic per-(self, peer, attempt) jitter bits: backoff pacing must
/// desynchronize neighbors without touching any RNG stream the algorithms
/// own.
std::uint64_t jitter_hash(NodeId self, NodeId peer, std::size_t attempt) {
  std::uint64_t state = (static_cast<std::uint64_t>(self) << 32) ^
                        static_cast<std::uint64_t>(peer) ^
                        (static_cast<std::uint64_t>(attempt) *
                         0x9e3779b97f4a7c15ULL);
  return splitmix64(state);
}

/// Sorts `ids` and drops repeats: the form a run reports suspicions in.
void sort_unique(std::vector<NodeId>& ids) {
  std::sort(ids.begin(), ids.end());
  ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
}

// Sync pacing: retransmit intervals grow 2 -> 4 outer rounds plus one
// hashed jitter round, so the worst spacing between attempts is 5.
constexpr std::size_t kSyncBaseInterval = 2;
constexpr std::size_t kSyncMaxInterval = 4;
constexpr std::size_t kSyncWorstSpacing = kSyncMaxInterval + 1;

}  // namespace

// ---------------------------------------------------------------------------
// Synchronous wrapper: round dilation.
// ---------------------------------------------------------------------------

std::size_t ReliableSyncSet::round_dilation(const FaultSpec& spec) {
  const TransportBudgets budgets = transport_budgets(spec);
  // Pacing spaces attempts up to kSyncWorstSpacing rounds apart, and each
  // failed attempt consumes frame-channel loss budget, so delivery needs at
  // most kSyncWorstSpacing*(one_way+1) rounds plus margin. Under
  // churn/outage plans one suspect/probe/retrust cycle can additionally
  // shelve a frame: the stall itself, plus a probe phase in which every
  // heartbeat or its reply may burn remaining round-trip loss budget at the
  // probe cadence. Loss-only plans can never reach kSuspected (the
  // suspicion threshold exceeds the whole round-trip loss budget), so they
  // pay no detector term.
  std::size_t dilation = kSyncWorstSpacing * (budgets.one_way + 1) + 12;
  if (budgets.stall > 0)
    dilation +=
        budgets.stall + kProbeInterval * (2 * budgets.one_way + 2) + 8;
  dilation += dilation % 2;  // keep the window even
  return dilation;
}

ReliableSyncSet::ReliableSyncSet(SyncProgramSet& inner, const FaultSpec& spec)
    : inner_(&inner),
      dilation_(round_dilation(spec)),
      budgets_(transport_budgets(spec)),
      nodes_(inner.size()) {}

TransportStats ReliableSyncSet::transport_stats() const {
  TransportStats total;
  for (const NodeState& node : nodes_) total.merge(node.stats);
  return total;
}

std::vector<NodeId> ReliableSyncSet::suspected_peers() const {
  std::vector<NodeId> suspected;
  for (const NodeState& node : nodes_) {
    const std::vector<NodeId> peers = ever_suspected(node.peers);
    suspected.insert(suspected.end(), peers.begin(), peers.end());
  }
  sort_unique(suspected);
  return suspected;
}

void ReliableSyncSet::prepare_shards(std::size_t shards) {
  if (frame_pools_.size() < shards) frame_pools_.resize(shards);
  inner_->prepare_shards(shards);
}

bool ReliableSyncSet::channels_idle(const NodeState& node) {
  for (const PeerState& state : node.peers)
    if (!state.idle() || state.live != 0) return false;
  return true;
}

// fdlsp-lint: hot — per-frame steady-state path, no allocator traffic
void ReliableSyncSet::handle_frame(NodeState& node, PeerState& state,
                                   const Message& message) {
  if (std::find(node.ack_due.begin(), node.ack_due.end(), state.peer()) ==
      node.ack_due.end())
    node.ack_due.push_back(state.peer());
  // A duplicate is just re-acked; a gap waits for go-back-N to resend.
  if (!state.accept(message.data[1])) return;
  // Unframe into the peer's next recycled slot, reusing its capacity.
  if (state.live == state.buffered.size()) state.buffered.emplace_back();
  BufferedFrame& buffered = state.buffered[state.live++];
  buffered.inner_round = message.data[2];
  unframe_into(buffered.original, message);
}

// fdlsp-lint: hot — per-inner-send steady-state path, no allocator traffic
void ReliableSyncSet::capture_send(SyncContext& ctx, NodeId to,
                                   const Message& message) {
  NodeState& node = nodes_[ctx.self()];
  PeerState& state = peer_state(node.peers, to);
  const std::int64_t seq = state.stamp(node.stats);
  if (seq == 0) return;  // dead peer: abandoned
  // Frame into a pooled buffer that the pending list then holds; the wire
  // copy goes from there into the engine's recycled inbox slot (the kept
  // send), and the ack returns the buffer to the pool.
  Message frame = take_frame(frame_pools_[ctx.shard()]);
  make_frame_into(frame, ctx.self(), to, seq,
                  static_cast<std::int64_t>(node.next_inner_round), message);
  const bool was_idle = state.pending().empty();
  if (!state.queue(PendingFrame{seq, std::move(frame)})) return;  // parked
  if (was_idle) state.next_retx = ctx.round() + kSyncBaseInterval;
  ctx.send(to, state.pending().back().frame);
}

std::size_t ReliableSyncSet::backoff_interval(const SyncContext& ctx,
                                              NodeState& node,
                                              const PeerState& state) {
  const std::size_t shift = std::min<std::size_t>(state.fails() / 2, 4);
  const std::size_t base =
      std::min<std::size_t>(kSyncBaseInterval << shift, kSyncMaxInterval);
  const std::size_t jitter =
      jitter_hash(ctx.self(), state.peer(), state.fails()) & 1;
  const std::size_t interval = base + jitter;
  if (static_cast<double>(interval) > node.stats.max_backoff)
    node.stats.max_backoff = static_cast<double>(interval);
  return interval;
}

// fdlsp-lint: hot — per-round steady-state path, no allocator traffic
void ReliableSyncSet::sweep(SyncContext& ctx, NodeState& node,
                            std::size_t round) {
  for (PeerState& state : node.peers) {
    if (round < state.next_retx) continue;
    switch (state.on_deadline(budgets_, node.stats)) {
      case PeerStep::kNone:
        // Idle or dead: sleep until capture_send or a re-trust re-arms the
        // deadline, so idle peers cost the sweep one comparison per round.
        state.next_retx = std::numeric_limits<std::size_t>::max();
        break;
      case PeerStep::kRetransmit:
        for (const PendingFrame& frame : state.pending())
          ctx.send(state.peer(), frame.frame);
        state.next_retx = round + backoff_interval(ctx, node, state);
        break;
      case PeerStep::kSuspect:
      case PeerStep::kProbe:
        ctx.send(state.peer(), make_control(kReliableHeartbeatTag, ctx.self(),
                                            state.peer(), state.received()));
        state.next_retx = round + kProbeInterval;
        break;
    }
  }
}

void ReliableSyncSet::on_round(NodeId v, SyncContext& ctx,
                               std::span<const Message> inbox) {
  NodeState& node = nodes_[v];
  const std::size_t round = ctx.round();
  node.ack_due.clear();
  for (const Message& message : inbox) {
    if (!wire_intact(v, message)) continue;  // corrupted
    PeerState& state = peer_state(node.peers, message.from);
    // A re-trusted peer's resumed frames go out on this round's sweep.
    if (message.tag == kReliableFrameTag) {
      if (state.heard(node.stats)) state.next_retx = round;
      handle_frame(node, state, message);
      continue;
    }
    if (state.ack(message.data[1], node.stats, &frame_pools_[ctx.shard()]))
      state.next_retx = round;
    // A heartbeat is an ack that demands an answer: queue a reply so the
    // prober hears us.
    if (message.tag == kReliableHeartbeatTag &&
        std::find(node.ack_due.begin(), node.ack_due.end(), message.from) ==
            node.ack_due.end())
      node.ack_due.push_back(message.from);
  }
  for (NodeId peer : node.ack_due)
    ctx.send(peer, make_control(kReliableAckTag, v, peer,
                                peer_state(node.peers, peer).received()));
  sweep(ctx, node, round);
  if (round % dilation_ == 0) run_inner(v, ctx, node);

  // With an empty inbox, a call before the next window boundary or the
  // earliest retransmit/probe deadline would find nothing due: sleep
  // through those rounds (every deadline is past `round` by now).
  std::size_t wake = (round / dilation_ + 1) * dilation_;
  for (const PeerState& state : node.peers)
    wake = std::min(wake, state.next_retx);
  ctx.sleep_until(wake);
  node.idle = channels_idle(node);
}

// fdlsp-lint: hot — per-window steady-state path, no allocator traffic
void ReliableSyncSet::run_inner(NodeId v, SyncContext& ctx, NodeState& node) {
  // Window boundary: assemble the previous inner round's inbox and run the
  // wrapped set one round for this node. Messages are swapped between the
  // peers' slots and the assembled slab, so both keep recycled capacity.
  node.next_inner_round = ctx.round() / dilation_;
  std::vector<Message>& assembled = node.assembled;
  std::size_t live = 0;
  for (PeerState& state : node.peers) {
    for (std::size_t i = 0; i < state.live; ++i) {
      BufferedFrame& frame = state.buffered[i];
      FDLSP_REQUIRE(frame.inner_round + 1 ==
                        static_cast<std::int64_t>(node.next_inner_round),
                    "late frame: reliable dilation window violated");
      if (live == assembled.size()) assembled.emplace_back();
      std::swap(assembled[live++], frame.original);
    }
    state.live = 0;
  }
  // Match the engine's native semantics: a finished node runs again only
  // when mail arrives for it.
  if (inner_->finished(v) && live == 0) return;
  const SyncCaptureSink capture = [this, &ctx](NodeId to,
                                               const Message& message) {
    capture_send(ctx, to, message);
  };
  SyncContext inner_ctx = ctx.reframed(node.next_inner_round, &capture);
  inner_->on_round(v, inner_ctx,
                   std::span<const Message>(assembled.data(), live));
}

bool ReliableSyncSet::ready_for_phase_advance(NodeId v) const {
  // The engine's barrier promises "no messages in flight"; at this layer
  // that means no unacked or shelved outbound frames and no buffered
  // inbound frames the wrapped set has not consumed yet.
  return inner_->ready_for_phase_advance(v) && nodes_[v].idle;
}

void ReliableSyncSet::on_phase(NodeId v, std::size_t new_phase) {
  inner_->on_phase(v, new_phase);
}

bool ReliableSyncSet::finished(NodeId v) const {
  return inner_->finished(v) && nodes_[v].idle;
}

SyncSetRun drive_sync_set(const Graph& graph, SyncProgramSet& set,
                          const RunConfig& run, std::size_t max_rounds) {
  std::optional<ReliableSyncSet> hardened;
  if (run.reliable) hardened.emplace(set, run.fault_spec());
  SyncEngine engine(graph, hardened ? static_cast<SyncProgramSet&>(*hardened)
                                    : set);
  const RunAttachment attached(engine, graph, run);
  SyncSetRun driven;
  driven.metrics =
      engine.run(max_rounds * (hardened ? hardened->round_dilation() : 1));
  driven.faulted = attached.faulted();
  if (hardened) {
    driven.transport = hardened->transport_stats();
    driven.suspected = hardened->suspected_peers();
  }
  return driven;
}

// ---------------------------------------------------------------------------
// Asynchronous wrapper: timer retransmit.
// ---------------------------------------------------------------------------

namespace {

/// Base retransmission period in simulated time. Delays are at most one
/// unit, so one period covers a frame and its ack round trip; the RTO never
/// drops below this (an earlier timer would count phantom failures against
/// live peers).
constexpr double kRetransmitPeriod = 2.0;
/// RTO clamp before backoff, and the hard ceiling after it.
constexpr double kMaxBaseRto = 6.0;
constexpr double kMaxRto = 8.0;

std::int64_t peer_cookie(NodeId peer) {
  return -static_cast<std::int64_t>(peer) - 1;
}

NodeId cookie_peer(std::int64_t cookie) {
  return static_cast<NodeId>(-(cookie + 1));
}

}  // namespace

ReliableAsyncProgram::ReliableAsyncProgram(std::unique_ptr<AsyncProgram> inner,
                                           const FaultSpec& spec)
    : inner_(std::move(inner)), budgets_(transport_budgets(spec)) {
  FDLSP_REQUIRE(inner_ != nullptr, "reliable wrapper needs a program");
}

// fdlsp-lint: hot — per-delivery steady-state path, no allocator traffic
void ReliableAsyncProgram::recycle_frame(Message&& frame) {
  // The pool never outgrows the peak number of simultaneously pending
  // frames, so this push_back settles after the first congestion spike.
  frame_pool_.push_back(std::move(frame));
}

void ReliableAsyncProgram::arm_timer(AsyncContext& ctx, PeerState& state,
                                     double delay) {
  if (state.timer_armed) return;
  state.timer_armed = true;
  ctx.set_timer(delay, peer_cookie(state.peer()));
}

double ReliableAsyncProgram::retransmit_interval(const AsyncContext& ctx,
                                                 const PeerState& state) {
  // RTO: smoothed RTT scaled by the EWMA loss estimate, clamped, then
  // doubled every other failed attempt up to the hard ceiling, plus a
  // deterministic fractional jitter so neighbors never retransmit in
  // lockstep.
  const double srtt = state.srtt > 0.0 ? state.srtt : kRetransmitPeriod;
  double base = srtt * (1.0 + 3.0 * state.loss_hat);
  base = std::min(std::max(base, kRetransmitPeriod), kMaxBaseRto);
  const std::size_t shift = std::min<std::size_t>(state.fails() / 2, 2);
  double rto = std::min(base * static_cast<double>(std::size_t{1} << shift),
                        kMaxRto);
  const std::uint64_t h = jitter_hash(ctx.self(), state.peer(), state.fails());
  rto += 0.5 * (static_cast<double>(h >> 11) * 0x1.0p-53);
  return rto;
}

void ReliableAsyncProgram::resume(AsyncContext& ctx, PeerState& state) {
  if (state.pending().empty()) return;
  for (const PendingFrame& frame : state.pending())
    ctx.send_copy(state.peer(), frame.frame);
  stats_.retransmits += state.pending().size();
  arm_timer(ctx, state, retransmit_interval(ctx, state));
}

// fdlsp-lint: hot — per-inner-send steady-state path, no allocator traffic
void ReliableAsyncProgram::capture_send(AsyncContext& ctx, NodeId to,
                                        const Message& message) {
  PeerState& state = peer_state(peers_, to);
  const std::int64_t seq = state.stamp(stats_);
  if (seq == 0) return;  // dead peer: abandoned
  // Frame into a pooled buffer held by the pending list itself; the wire
  // copy below goes straight from there into the engine's event slab, so
  // the whole send path reuses recycled capacity end to end.
  Message frame = take_frame(frame_pool_);
  make_frame_into(frame, ctx.self(), to, seq, 0, message);
  if (!state.queue(PendingFrame{seq, std::move(frame), ctx.now()})) return;
  ctx.send_copy(to, state.pending().back().frame);
  arm_timer(ctx, state, retransmit_interval(ctx, state));
}

void ReliableAsyncProgram::on_start(AsyncContext& ctx) {
  const AsyncSendSink sink = [this, &ctx](NodeId to, const Message& message) {
    capture_send(ctx, to, message);
  };
  AsyncContext inner_ctx = ctx.reframed(&sink);
  inner_->on_start(inner_ctx);
}

// fdlsp-lint: hot — per-delivery steady-state path, no allocator traffic
void ReliableAsyncProgram::deliver_in_order(AsyncContext& ctx, NodeId peer,
                                            Message& original) {
  const AsyncSendSink sink = [this, &ctx](NodeId to, const Message& message) {
    capture_send(ctx, to, message);
  };
  AsyncContext inner_ctx = ctx.reframed(&sink);
  inner_->on_message(inner_ctx, original);
  // The inner handler may have sent to new peers, growing peers_ and
  // invalidating references — re-resolve the state every iteration.
  for (;;) {
    PeerState& fresh = peer_state(peers_, peer);
    if (fresh.reordered.empty() || !fresh.accept(fresh.reordered.front().seq))
      break;
    Message next = std::move(fresh.reordered.front().original);
    fresh.reordered.erase(fresh.reordered.begin());
    inner_->on_message(inner_ctx, next);
    // The buffer came out of the pool when the frame was held out of order
    // (see handle_frame); hand it back for the next frame.
    recycle_frame(std::move(next));
  }
}

void ReliableAsyncProgram::handle_frame(AsyncContext& ctx,
                                        const Message& message) {
  const NodeId peer = message.from;
  const std::int64_t seq = message.data[1];
  bool deliver = false;
  {
    PeerState& state = peer_state(peers_, peer);
    if (state.heard(stats_)) resume(ctx, state);
    if (state.accept(seq)) {
      unframe_into(unframe_scratch_, message);
      deliver = true;
    } else if (seq > state.received()) {
      // Out of order: hold until the gap fills (the sender retransmits the
      // missing frames). Idempotent under duplication. The held copy lives
      // in a pooled buffer, recycled after its in-order delivery.
      auto it = std::lower_bound(
          state.reordered.begin(), state.reordered.end(), seq,
          [](const ReorderedFrame& frame, std::int64_t id) {
            return frame.seq < id;
          });
      if (it == state.reordered.end() || it->seq != seq) {
        Message held = take_frame(frame_pool_);
        unframe_into(held, message);
        state.reordered.insert(it, ReorderedFrame{seq, std::move(held)});
      }
    }
    // seq <= received: duplicate — fall through and re-ack.
  }
  if (deliver) deliver_in_order(ctx, peer, unframe_scratch_);
  ctx.send(peer, make_control(kReliableAckTag, ctx.self(), peer,
                              peer_state(peers_, peer).received()));
}

void ReliableAsyncProgram::handle_ack(AsyncContext& ctx, PeerState& state,
                                      std::int64_t cumulative) {
  if (cumulative > state.acked()) {
    // RTT sample from the newest frame this ack covers, unless it was ever
    // retransmitted (Karn's rule: the sample would be ambiguous). Progress
    // also decays the loss estimate.
    const PendingFrame* newest = nullptr;
    for (const PendingFrame& frame : state.pending())
      if (frame.seq <= cumulative) newest = &frame;
    if (newest != nullptr && !newest->retransmitted) {
      const double sample = ctx.now() - newest->sent_at;
      state.srtt = state.srtt > 0.0
                       ? state.srtt + (sample - state.srtt) * 0.125
                       : sample;
    }
    state.loss_hat *= 0.75;
  }
  // Any valid ack proves the peer is alive and hearing us.
  if (state.ack(cumulative, stats_, &frame_pool_)) resume(ctx, state);
}

void ReliableAsyncProgram::on_message(AsyncContext& ctx, Message& message) {
  if (!wire_intact(ctx.self(), message)) return;  // corrupted
  if (message.tag == kReliableFrameTag) {
    handle_frame(ctx, message);
    return;
  }
  const NodeId peer = message.from;
  handle_ack(ctx, peer_state(peers_, peer), message.data[1]);
  // A heartbeat is an ack that demands an answer.
  if (message.tag == kReliableHeartbeatTag)
    ctx.send(peer, make_control(kReliableAckTag, ctx.self(), peer,
                                peer_state(peers_, peer).received()));
}

void ReliableAsyncProgram::on_timer(AsyncContext& ctx, std::int64_t cookie) {
  if (cookie >= 0) {
    // Inner-program timer: forward untouched (cookies < 0 are ours).
    const AsyncSendSink sink = [this, &ctx](NodeId to,
                                            const Message& message) {
      capture_send(ctx, to, message);
    };
    AsyncContext inner_ctx = ctx.reframed(&sink);
    inner_->on_timer(inner_ctx, cookie);
    return;
  }
  const NodeId peer = cookie_peer(cookie);
  PeerState& state = peer_state(peers_, peer);
  state.timer_armed = false;
  const PeerStep step = state.on_deadline(budgets_, stats_);
  // Each failed attempt nudges the loss estimate up; acked progress decays
  // it again, so the RTO tracks the channel's recent behavior.
  if (step == PeerStep::kRetransmit || step == PeerStep::kSuspect)
    state.loss_hat += (1.0 - state.loss_hat) * 0.25;
  switch (step) {
    case PeerStep::kNone:
      return;
    case PeerStep::kRetransmit: {
      for (const PendingFrame& frame : state.pending())
        ctx.send_copy(peer, frame.frame);
      const double rto = retransmit_interval(ctx, state);
      if (rto > stats_.max_backoff) stats_.max_backoff = rto;
      arm_timer(ctx, state, rto);
      return;
    }
    case PeerStep::kSuspect:
    case PeerStep::kProbe:
      ctx.send(peer, make_control(kReliableHeartbeatTag, ctx.self(), peer,
                                  state.received()));
      arm_timer(ctx, state, static_cast<double>(kProbeInterval));
      return;
  }
}

bool ReliableAsyncProgram::finished() const {
  if (!inner_->finished()) return false;
  for (const PeerState& state : peers_)
    if (!state.idle() || !state.reordered.empty()) return false;
  return true;
}

// ---------------------------------------------------------------------------
// Run helpers.
// ---------------------------------------------------------------------------

void wrap_reliable(std::vector<std::unique_ptr<AsyncProgram>>& programs,
                   const FaultSpec& spec) {
  for (auto& program : programs)
    program = std::make_unique<ReliableAsyncProgram>(std::move(program), spec);
}

void collect_transport(const AsyncEngine& engine, std::size_t nodes,
                       TransportStats& stats, std::vector<NodeId>* suspected) {
  for (NodeId v = 0; v < nodes; ++v) {
    const auto& wrapper =
        static_cast<const ReliableAsyncProgram&>(engine.program(v));
    stats.merge(wrapper.transport_stats());
    if (suspected == nullptr) continue;
    const std::vector<NodeId> peers = wrapper.suspected_peers();
    suspected->insert(suspected->end(), peers.begin(), peers.end());
  }
  if (suspected != nullptr) sort_unique(*suspected);
}

}  // namespace fdlsp
