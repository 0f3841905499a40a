#include "sim/async_engine.h"

#include <algorithm>
#include <utility>

#include "graph/arcs.h"
#include "support/alloc_audit.h"
#include "support/check.h"

namespace fdlsp {

const NeighborEntry& AsyncContext::entry_of(NodeId to) const {
  const NeighborEntry* entry = find_neighbor(neighbors_, to);
  FDLSP_REQUIRE(entry != nullptr, "nodes may only message direct neighbors");
  return *entry;
}

// fdlsp-lint: hot — per-event steady-state path, no allocator traffic
void AsyncContext::send(NodeId to, Message message) {
  message.from = self_;
  if (sink_ != nullptr) {  // the capture layer validates its own sends
    (*sink_)(to, message);
    return;
  }
  post(entry_of(to), std::move(message));
}

// fdlsp-lint: hot — per-event steady-state path, no allocator traffic
void AsyncContext::send_copy(NodeId to, const Message& message) {
  if (sink_ != nullptr) {
    (*sink_)(to, message);
    return;
  }
  post(entry_of(to), message);
}

// fdlsp-lint: hot — per-event steady-state path, no allocator traffic
void AsyncContext::send_copy_at(std::size_t neighbor_index,
                                const Message& message) {
  FDLSP_REQUIRE(neighbor_index < neighbors_.size(),
                "neighbor index out of range");
  post(neighbors_[neighbor_index], message);
}

// fdlsp-lint: hot — per-event steady-state path, no allocator traffic
void AsyncContext::broadcast(Message message) {
  if (neighbors_.empty()) return;
  // All but the last copy are copy-assigned into recycled event slots (no
  // fresh payload buffers); the last moves the original's buffer, so a
  // broadcast to d neighbors allocates nothing beyond what the caller
  // already materialized.
  for (std::size_t i = 0; i + 1 < neighbors_.size(); ++i)
    post(neighbors_[i], std::as_const(message));
  post(neighbors_.back(), std::move(message));
}

// fdlsp-lint: hot — per-event steady-state path, no allocator traffic
template <typename M>
void AsyncContext::post(const NeighborEntry& entry, M&& message) {
  if (sink_ != nullptr) {
    (*sink_)(entry.to, message);  // the sink borrows; it copies what it keeps
    return;
  }
  engine_->post(self_, entry, std::forward<M>(message), now_);
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
  delays_drawn_.assign(2 * graph_.num_edges(), 0);
}

/// Posts one message along `entry` of `from`'s adjacency row. Under a
/// fault plan, FaultPlan::on_post decides its fate on the channel the
/// entry names: dropped, scheduled twice (the copy first), scheduled and
/// then corrupted in its slot, or scheduled as is.
// fdlsp-lint: hot — per-event steady-state path, no allocator traffic
template <typename M>
void AsyncEngine::post(NodeId from, const NeighborEntry& entry, M&& message,
                       double now) {
  const ArcId channel = arc_along(from, entry);
  if (faults_ != nullptr) {
    const FaultDecision fate = faults_->on_post(channel, from, entry.to, now);
    switch (fate.action) {
      case FaultAction::kDrop:
        return;
      case FaultAction::kDuplicate:
        enqueue(from, entry.to, channel, std::as_const(message), now);
        break;
      case FaultAction::kCorrupt:
        faults_->corrupt_payload(
            channel, fate.index,
            enqueue(from, entry.to, channel, std::forward<M>(message), now));
        return;
      case FaultAction::kDeliver:
        break;
    }
  }
  enqueue(from, entry.to, channel, std::forward<M>(message), now);
}

/// Schedules one message event on `channel` and returns its slot's
/// message. A moved message swaps payload buffers with the slot (the
/// dying source takes the slot's recycled one); a kept one is
/// copy-assigned into the slot's capacity, so the caller keeps its buffer
/// and a warmed run allocates nothing.
// fdlsp-lint: hot — per-event steady-state path, no allocator traffic
template <typename M>
Message& AsyncEngine::enqueue(NodeId from, NodeId to, ArcId channel,
                              M&& message, double now) {
  const std::uint32_t slot = slab_.acquire();
  AsyncEventSlot& event = slab_[slot];
  event.to = to;
  event.channel = channel;
  event.cookie = 0;
  event.message = std::forward<M>(message);
  event.message.from = from;
  // on_send fires once per copy actually scheduled (dropped messages emit no
  // event, duplicates emit two), keeping the per-channel send/deliver
  // pairing the happens-before checker relies on exact under faults.
  if (trace_ != nullptr) trace_->on_send(from, to);
  double when;
  if (unit_delay_) {
    // Devirtualized constant-unit model: identical timestamps, no virtual
    // call and no post-index bookkeeping (the index only feeds schedules).
    when = now + 1.0;
  } else {
    const double delay = schedule_->delay(channel, delays_drawn_[channel]++);
    FDLSP_REQUIRE(delay > 0.0 && delay <= 1.0,
                  "delay schedules must return delays in (0, 1]");
    when = now + delay;
  }
  // FIFO per directed channel: never schedule before an earlier message on
  // the same channel.
  when = std::max(when, channel_clock_[channel] + 1e-9);
  channel_clock_[channel] = when;
  wheel_.insert(AsyncEventKey{when, next_sequence_++, slot});
  return event.message;
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
  if (faults_ != nullptr) faults_->on_run_start();
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
