#include "sim/async_engine.h"

#include <algorithm>
#include <utility>

#include "support/alloc_audit.h"
#include "support/check.h"

namespace fdlsp {

// fdlsp-lint: hot — per-event steady-state path, no allocator traffic
void AsyncContext::send(NodeId to, Message message) {
  message.from = self_;
  if (sink_ != nullptr) {
    (*sink_)(to, message);  // the sink borrows; it copies what it keeps
    return;
  }
  engine_->post(self_, to, std::move(message), now_);
}

// fdlsp-lint: hot — per-event steady-state path, no allocator traffic
void AsyncContext::send_copy(NodeId to, const Message& message) {
  if (sink_ != nullptr) {
    (*sink_)(to, message);
    return;
  }
  engine_->post_copy(self_, to, message, now_);
}

// fdlsp-lint: hot — per-event steady-state path, no allocator traffic
void AsyncContext::send_copy_at(std::size_t neighbor_index,
                                const Message& message) {
  FDLSP_REQUIRE(neighbor_index < neighbors_.size(),
                "neighbor index out of range");
  const NodeId to = neighbors_[neighbor_index].to;
  if (sink_ != nullptr) {
    (*sink_)(to, message);
    return;
  }
  engine_->post_copy_resolved(
      self_, to, engine_->channels_.channel_at(self_, neighbor_index),
      message, now_);
}

// fdlsp-lint: hot — per-event steady-state path, no allocator traffic
void AsyncContext::broadcast(Message message) {
  if (neighbors_.empty()) return;
  // All but the last copy go through the copy-assign path (recycled event
  // slots, no fresh payload buffers); the last reuses the original's
  // buffer, so a broadcast to d neighbors allocates nothing beyond what
  // the caller already materialized.
  for (std::size_t i = 0; i + 1 < neighbors_.size(); ++i)
    send_copy(neighbors_[i].to, message);
  send(neighbors_.back().to, std::move(message));
}

void AsyncContext::set_timer(double delay, std::int64_t cookie) {
  engine_->post_timer(self_, delay, cookie, now_);
}

void AsyncProgram::on_timer(AsyncContext& /*ctx*/, std::int64_t /*cookie*/) {}

AsyncEngine::AsyncEngine(const Graph& graph,
                         std::vector<std::unique_ptr<AsyncProgram>> programs,
                         DelayModel delay_model, std::uint64_t seed)
    : AsyncEngine(graph, std::move(programs),
                  make_delay_schedule(delay_model, seed)) {}

AsyncEngine::AsyncEngine(const Graph& graph,
                         std::vector<std::unique_ptr<AsyncProgram>> programs,
                         std::unique_ptr<DelaySchedule> schedule)
    : graph_(graph),
      programs_(std::move(programs)),
      schedule_(std::move(schedule)) {
  FDLSP_REQUIRE(programs_.size() == graph_.num_nodes(),
                "one program per node required");
  FDLSP_REQUIRE(schedule_ != nullptr, "delay schedule required");
  unit_delay_ = schedule_->constant_unit();
  channel_clock_.assign(2 * graph_.num_edges(), 0.0);
  channel_posts_.assign(2 * graph_.num_edges(), 0);
  // Per-(neighbor-pair) channel ids, computed once: post() resolves the
  // channel of every message with a single CSR row search instead of
  // find_edge + an ArcView Edge load.
  channels_.build(graph_);
}

// fdlsp-lint: hot — per-event steady-state path, no allocator traffic
void AsyncEngine::schedule_slot(std::uint32_t slot, NodeId to, ArcId channel,
                                double now) {
  // on_send fires once per copy actually scheduled (dropped messages emit no
  // event, duplicates emit two), keeping the per-channel send/deliver
  // pairing the happens-before checker relies on exact under faults.
  if (trace_ != nullptr) trace_->on_send(slab_[slot].message.from, to);
  double when;
  if (unit_delay_) {
    // Devirtualized constant-unit model: identical timestamps, no virtual
    // call and no post-index bookkeeping (the index only feeds schedules).
    when = now + 1.0;
  } else {
    const double delay = schedule_->delay(channel, channel_posts_[channel]++);
    FDLSP_REQUIRE(delay > 0.0 && delay <= 1.0,
                  "delay schedules must return delays in (0, 1]");
    when = now + delay;
  }
  // FIFO per directed channel: never schedule before an earlier message on
  // the same channel.
  when = std::max(when, channel_clock_[channel] + 1e-9);
  channel_clock_[channel] = when;
  wheel_.insert(AsyncEventKey{when, next_sequence_++, slot});
}

// fdlsp-lint: hot — per-event steady-state path, no allocator traffic
void AsyncEngine::enqueue(NodeId to, ArcId channel, Message message,
                          double now) {
  const std::uint32_t slot = slab_.acquire();
  AsyncEventSlot& event = slab_[slot];
  event.to = to;
  event.channel = channel;
  event.cookie = 0;
  // Move-assign swaps payload buffers: the slot takes the message's, the
  // dying message takes the slot's recycled one.
  event.message = std::move(message);
  schedule_slot(slot, to, channel, now);
}

// fdlsp-lint: hot — per-event steady-state path, no allocator traffic
void AsyncEngine::enqueue_copy(NodeId from, NodeId to, ArcId channel,
                               const Message& message, double now) {
  const std::uint32_t slot = slab_.acquire();
  AsyncEventSlot& event = slab_[slot];
  event.to = to;
  event.channel = channel;
  event.cookie = 0;
  // Copy-assign reuses the recycled slot's payload capacity: the caller
  // keeps its buffer, the slot keeps its own — no allocation once warmed.
  event.message = message;
  event.message.from = from;
  schedule_slot(slot, to, channel, now);
}

// fdlsp-lint: hot — per-event steady-state path, no allocator traffic
void AsyncEngine::post(NodeId from, NodeId to, Message message, double now) {
  const ArcId channel = channels_.channel(graph_, from, to);
  FDLSP_REQUIRE(channel != kNoArc, "nodes may only message direct neighbors");
  if (faults_ == nullptr) {
    enqueue(to, channel, std::move(message), now);
    return;
  }
  // A crashed sender's handlers never run, but a send from the exact crash
  // instant is possible; treat both endpoints dead.
  if (faults_->node_down(from, now) || faults_->node_down(to, now)) {
    ++faults_->stats().crash_drops;
    return;
  }
  if (faults_->link_down(channel, now)) {
    ++faults_->stats().link_down_drops;
    return;
  }
  // fdlsp-lint: hot — region outage test is a per-edge bitmask probe
  if (faults_->region_down(channel, now)) {
    ++faults_->stats().region_drops;
    return;
  }
  const std::uint64_t index = fault_posts_[channel]++;
  switch (faults_->channel_action(channel, index, now)) {
    case FaultAction::kDrop:
      return;
    case FaultAction::kDuplicate:
      enqueue(to, channel, message, now);
      enqueue(to, channel, std::move(message), now);
      return;
    case FaultAction::kCorrupt:
      faults_->corrupt_payload(channel, index, message);
      enqueue(to, channel, std::move(message), now);
      return;
    case FaultAction::kDeliver:
      enqueue(to, channel, std::move(message), now);
      return;
  }
  FDLSP_REQUIRE(false, "unknown fault action");
}

// fdlsp-lint: hot — per-event steady-state path, no allocator traffic
void AsyncEngine::post_copy(NodeId from, NodeId to, const Message& message,
                            double now) {
  const ArcId channel = channels_.channel(graph_, from, to);
  FDLSP_REQUIRE(channel != kNoArc, "nodes may only message direct neighbors");
  post_copy_resolved(from, to, channel, message, now);
}

// fdlsp-lint: hot — per-event steady-state path, no allocator traffic
void AsyncEngine::post_copy_resolved(NodeId from, NodeId to, ArcId channel,
                                     const Message& message, double now) {
  if (faults_ == nullptr) {
    enqueue_copy(from, to, channel, message, now);
    return;
  }
  // Same fault cascade as post(); drops decide before any copy is made, so
  // a dropped send of a kept buffer costs nothing at all.
  if (faults_->node_down(from, now) || faults_->node_down(to, now)) {
    ++faults_->stats().crash_drops;
    return;
  }
  if (faults_->link_down(channel, now)) {
    ++faults_->stats().link_down_drops;
    return;
  }
  if (faults_->region_down(channel, now)) {
    ++faults_->stats().region_drops;
    return;
  }
  const std::uint64_t index = fault_posts_[channel]++;
  switch (faults_->channel_action(channel, index, now)) {
    case FaultAction::kDrop:
      return;
    case FaultAction::kDuplicate:
      enqueue_copy(from, to, channel, message, now);
      enqueue_copy(from, to, channel, message, now);
      return;
    case FaultAction::kCorrupt: {
      // Corrupt the slot's copy in place; the caller's buffer stays intact.
      const std::uint32_t slot = slab_.acquire();
      AsyncEventSlot& event = slab_[slot];
      event.to = to;
      event.channel = channel;
      event.cookie = 0;
      event.message = message;
      event.message.from = from;
      faults_->corrupt_payload(channel, index, event.message);
      schedule_slot(slot, to, channel, now);
      return;
    }
    case FaultAction::kDeliver:
      enqueue_copy(from, to, channel, message, now);
      return;
  }
  FDLSP_REQUIRE(false, "unknown fault action");
}

// fdlsp-lint: hot — per-timer steady-state path, no allocator traffic
void AsyncEngine::post_timer(NodeId v, double delay, std::int64_t cookie,
                             double now) {
  FDLSP_REQUIRE(delay > 0.0, "timer delays must be positive");
  // Timers are node-local: no channel, no FIFO clamp, no delay schedule.
  const std::uint32_t slot = slab_.acquire();
  AsyncEventSlot& event = slab_[slot];
  event.to = v;
  event.channel = kNoArc;
  event.cookie = cookie;
  wheel_.insert(AsyncEventKey{now + delay, next_sequence_++, slot});
}

// fdlsp-lint: hot — per-event steady-state path, no allocator traffic
void AsyncEngine::dispatch_event(
    const AsyncEventKey& key, AsyncMetrics& metrics, std::size_t& events,
    std::vector<std::pair<double, std::uint64_t>>& delivered) {
  AsyncEventSlot& slot = slab_[key.slot];
  const NodeId to = slot.to;
  const ArcId channel = slot.channel;
  const std::int64_t cookie = slot.cookie;
  if (faults_ != nullptr && faults_->node_down(to, key.time)) {
    // In-flight traffic to a dead node dies with it (timers silently).
    if (channel != kNoArc) ++faults_->stats().crash_drops;
    slab_.release(key.slot);
    return;
  }
  ++events;
  // Pops follow the global (time, sequence) order, so the latest dispatched
  // event is always the furthest in time.
  metrics.completion_time = key.time;
  // One audited "round" is one dispatched event: the handler plus the
  // queue traffic it generates (its posts land inside the bracket).
  if (alloc_audit_ != nullptr) alloc_audit_->begin_round();
  AsyncContext ctx(*this, to, graph_.neighbors(to), key.time);
  if (channel == kNoArc) {
    // The slot is released before the handler runs: its cookie is already
    // copied out and a post from inside the handler reuses it first.
    slab_.release(key.slot);
    ++metrics.timer_events;
    if (trace_ != nullptr) trace_->on_local_step(to);
    current_node_ = to;
    programs_[to]->on_timer(ctx, cookie);
    current_node_ = kNoNode;
    if (alloc_audit_ != nullptr) alloc_audit_->end_round();
    return;
  }
  ++metrics.messages;
  // The {-1.0, 0} initial entry can never trip the check (times are
  // nonnegative, sequences unsigned), so a first delivery needs no guard.
  const auto& [last_time, last_sequence] = delivered[channel];
  if (key.time < last_time || key.sequence < last_sequence)
    metrics.fifo_ok = false;
  delivered[channel] = {key.time, key.sequence};
  if (trace_ != nullptr) {
    trace_->on_deliver(slot.message.from, to);
    trace_->on_local_step(to);
  }
  // Swap the payload into the dispatch scratch (the slot inherits the
  // scratch's previous capacity) and release the slot before the handler:
  // the hottest slot is reused first and the handler's view of the message
  // is the scratch buffer, never slab storage that might move under it.
  dispatch_scratch_ = std::move(slot.message);
  slab_.release(key.slot);
  current_node_ = to;
  programs_[to]->on_message(ctx, dispatch_scratch_);
  current_node_ = kNoNode;
  if (alloc_audit_ != nullptr) alloc_audit_->end_round();
}

std::string AsyncEngine::diagnose_stall() {
  // Event budget exhausted with work still queued: summarize what is stuck
  // so a livelock (e.g. a retransmission loop that can never be acked) is
  // debuggable instead of a silent hang. The slab's liveness map covers
  // every pending event.
  std::vector<std::uint64_t> pending(channel_clock_.size(), 0);
  std::size_t pending_timers = 0;
  std::size_t total = 0;
  const std::vector<char> live = slab_.live_map();
  for (std::uint32_t s = 0; s < live.size(); ++s) {
    if (live[s] == 0) continue;
    ++total;
    if (slab_[s].channel == kNoArc)
      ++pending_timers;
    else
      ++pending[slab_[s].channel];
  }
  std::vector<ArcId> busiest;
  for (ArcId c = 0; c < pending.size(); ++c)
    if (pending[c] > 0) busiest.push_back(c);
  std::sort(busiest.begin(), busiest.end(), [&](ArcId a, ArcId b) {
    return pending[a] != pending[b] ? pending[a] > pending[b] : a < b;
  });
  std::string out = "event budget exhausted with " + std::to_string(total) +
                    " events pending (" + std::to_string(pending_timers) +
                    " timers); busiest channels:";
  const std::size_t show = std::min<std::size_t>(busiest.size(), 5);
  for (std::size_t i = 0; i < show; ++i) {
    const ArcId c = busiest[i];
    const Edge& edge = graph_.edge(static_cast<EdgeId>(c >> 1));
    const NodeId from = (c & 1u) == 0 ? edge.u : edge.v;
    const NodeId to = (c & 1u) == 0 ? edge.v : edge.u;
    out.append(" ")
        .append(std::to_string(from))
        .append("->")
        .append(std::to_string(to))
        .append(" x")
        .append(std::to_string(pending[c]));
  }
  if (busiest.size() > show)
    out.append(" (+")
        .append(std::to_string(busiest.size() - show))
        .append(" more)");
  out += "; unfinished nodes:";
  std::size_t listed = 0;
  for (NodeId v = 0; v < programs_.size(); ++v) {
    if (programs_[v]->finished()) continue;
    if (faults_ != nullptr && faults_->node_crashes(v)) continue;
    if (listed == 8) {
      out += " ...";
      break;
    }
    out.append(" ").append(std::to_string(v));
    ++listed;
  }
  if (listed == 0) out += " none";
  return out;
}

AsyncMetrics AsyncEngine::run(std::size_t max_messages) {
  AsyncMetrics metrics;
  if (faults_ != nullptr) {
    faults_->on_run_start();
    fault_posts_.assign(2 * graph_.num_edges(), 0);
  }
  for (NodeId v = 0; v < graph_.num_nodes(); ++v) {
    // A node whose crash time is <= 0 never wakes up at all.
    if (faults_ != nullptr && faults_->node_down(v, 0.0)) continue;
    AsyncContext ctx(*this, v, graph_.neighbors(v), 0.0);
    if (trace_ != nullptr) trace_->on_local_step(v);
    current_node_ = v;
    programs_[v]->on_start(ctx);
    current_node_ = kNoNode;
  }
  // Last delivered (time, sequence) per channel; sequences are assigned in
  // post order, so a delivery with a smaller sequence than its channel's
  // last one means FIFO was violated.
  std::vector<std::pair<double, std::uint64_t>> delivered(
      channel_clock_.size(), {-1.0, 0});
  // Timer callbacks count against the same budget as deliveries: a
  // retransmission livelock burns timers, not messages, and must still hit
  // the watchdog.
  std::size_t events = 0;
  while (!wheel_.empty() && events < max_messages)
    dispatch_event(wheel_.pop(), metrics, events, delivered);
  if (!wheel_.empty()) metrics.stall_diagnosis = diagnose_stall();
  bool all_done = true;
  for (NodeId v = 0; v < programs_.size(); ++v) {
    if (programs_[v]->finished()) continue;
    // A node the plan fail-stops counts as terminated even when its crash
    // time lies past the last event: no future event can ever reach it.
    if (faults_ != nullptr && faults_->node_crashes(v)) continue;
    all_done = false;
    break;
  }
  // Note: completion does not test the pending-event count. The previous
  // engine's stall diagnosis drained its queue before this line ran, so a
  // budget-exhausted run with every node finished still reported
  // completed — behavior the callers (and the byte-identical contract)
  // depend on.
  metrics.completed = all_done;
  if (faults_ != nullptr) metrics.faults = faults_->stats();
  return metrics;
}

}  // namespace fdlsp
