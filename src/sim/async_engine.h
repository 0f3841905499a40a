// Asynchronous message-passing engine.
//
// Event-driven: messages are delivered one at a time in timestamp order.
// Channels are FIFO per ordered (sender, receiver) pair. Delays come from a
// pluggable DelaySchedule (see sim/delay.h): the unit-delay model used for
// worst-case time complexity, uniformly random delays in (0, 1], or a
// seeded adversarial schedule that maximizes cross-channel reordering. The
// completion "time" metric is the timestamp of the last delivery — the
// standard asynchronous time measure where every message takes at most one
// unit.
//
// Internals (DESIGN.md §16): events live in a recycling slab
// (sim/event_queue.h) and the ordering structure holds only
// (time, sequence, slot) keys. One hierarchical calendar queue
// (sim/timer_wheel.h) holds both the message events — O(1) bucket
// insertion instead of O(log n) heap sifts — and the set_timer traffic.
// Dispatch pops it in (time, sequence) order; sequences come from one
// counter assigned at post time, so simultaneous events fire in post order.
//
// Sends: every message is posted along one entry of the sender's adjacency
// row. send(to, …) and send_copy(to, …) find the entry with one binary
// search, which is also the direct-neighbor check; send_copy_at and
// broadcast index or walk the row. The entry names the directed channel
// (arc_along, graph/arcs.h); an attached FaultPlan decides the message's
// fate there, in one call (FaultPlan::on_post).
#pragma once

#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "graph/graph.h"
#include "sim/delay.h"
#include "sim/event_queue.h"
#include "sim/fault.h"
#include "sim/message.h"
#include "sim/timer_wheel.h"
#include "sim/trace.h"

namespace fdlsp {

class AllocAudit;
class AsyncEngine;

/// Capture target for a reframed context's sends (see AsyncContext::reframed).
/// The sink borrows the message for the duration of the call — it must copy
/// what it keeps — so a captured send of a recycled scratch message adds no
/// allocator traffic (the reliable wrapper frames the payload into its own
/// recycled buffers; sim/reliable.cpp). The message's `from` field is
/// unspecified: the capturing layer knows which node it drives.
using AsyncSendSink = std::function<void(NodeId to, const Message& message)>;

/// Context handed to asynchronous handlers; valid only during the call.
class AsyncContext {
 public:
  NodeId self() const noexcept { return self_; }

  /// Simulated time of the event being handled.
  double now() const noexcept { return now_; }

  /// Direct neighbors of this node.
  std::span<const NeighborEntry> neighbors() const noexcept {
    return neighbors_;
  }

  /// Sends a message to a direct neighbor.
  void send(NodeId to, Message message);

  /// Sends a message the caller keeps (e.g. a reusable scratch buffer): the
  /// engine copy-assigns the payload into a recycled event slot, so a
  /// warmed run sends with zero allocator traffic even for spilled
  /// payloads — the async twin of SyncContext::broadcast(const Message&).
  /// The message's `from` field is left untouched; the scheduled copy
  /// carries this node's id regardless.
  void send_copy(NodeId to, const Message& message);

  /// send_copy addressed by position in neighbors() instead of node id,
  /// skipping the per-send neighbor search — the natural call for programs
  /// that iterate their neighbor span anyway (the synchronizer's frame
  /// fan-out).
  void send_copy_at(std::size_t neighbor_index, const Message& message);

  /// Sends a copy of the message to every neighbor.
  void broadcast(Message message);

  /// Schedules an on_timer(cookie) callback on this node after `delay` time
  /// units (any positive value; timers are local and bypass the delay
  /// schedule). The timeout primitive retransmission layers need — a purely
  /// message-driven node cannot act on silence.
  void set_timer(double delay, std::int64_t cookie);

  /// A copy of this context for a protocol layered *inside* another program
  /// (sim/reliable.h): send()/broadcast() feed `sink` instead of the engine
  /// so the outer program can frame and schedule the traffic itself.
  /// set_timer still reaches the engine. `sink` must outlive the copy.
  AsyncContext reframed(const AsyncSendSink* sink) const {
    AsyncContext copy = *this;
    copy.sink_ = sink;
    return copy;
  }

 private:
  friend class AsyncEngine;
  AsyncContext(AsyncEngine& engine, NodeId self,
               std::span<const NeighborEntry> neighbors, double now)
      : engine_(&engine), self_(self), neighbors_(neighbors), now_(now) {}

  // The entry of `to` in neighbors_; contract_error for a non-neighbor.
  const NeighborEntry& entry_of(NodeId to) const;

  // The one send path: posts `message` along `entry`, one of neighbors_,
  // to the capture sink or the engine. M is Message (moved in) or
  // const Message& (kept by the caller).
  template <typename M>
  void post(const NeighborEntry& entry, M&& message);

  AsyncEngine* engine_;
  NodeId self_;
  std::span<const NeighborEntry> neighbors_;
  double now_;
  const AsyncSendSink* sink_ = nullptr;  // non-null: capture instead of send
};

/// A node program for the asynchronous engine.
class AsyncProgram {
 public:
  virtual ~AsyncProgram() = default;

  /// Called once at time 0 before any delivery (spontaneous wake-up; only
  /// initiator nodes typically act).
  virtual void on_start(AsyncContext& ctx) = 0;

  /// Called for each delivered message. The message borrows the engine's
  /// dispatch scratch buffer: it is valid only for the duration of the
  /// call, exactly as the context. The reference is mutable so a handler
  /// that keeps the payload can move-assign it out (SmallPayload moves
  /// swap buffers, so the scratch inherits the handler's recycled
  /// capacity) instead of copying; the engine never reads the message
  /// after the handler returns.
  virtual void on_message(AsyncContext& ctx, Message& message) = 0;

  /// Called when a timer set via AsyncContext::set_timer expires. Default:
  /// ignore (plain message-driven programs never see timers).
  virtual void on_timer(AsyncContext& ctx, std::int64_t cookie);

  /// True when this node has terminated.
  virtual bool finished() const = 0;
};

/// Metrics of an asynchronous run.
struct AsyncMetrics {
  std::size_t messages = 0;  ///< total messages delivered
  std::size_t timer_events = 0;  ///< timer callbacks fired
  double completion_time = 0.0;  ///< timestamp of the last delivery
  bool completed = false;  ///< all (non-crashed) nodes finished, queue drained
  /// True iff deliveries on every directed channel happened in send order.
  /// The engine enforces this by construction; the flag is re-validated at
  /// delivery time so delay-schedule bugs cannot silently break causality.
  bool fifo_ok = true;
  FaultStats faults;  ///< injected faults (all zero without a plan)
  /// Empty on a clean run. When the event budget is exhausted with work
  /// still queued (a livelock — e.g. a retransmission loop that can never
  /// be acked), this holds the watchdog's diagnosis: pending event counts,
  /// the busiest channels, and the unfinished nodes, so the failure is
  /// debuggable instead of a silent hang.
  std::string stall_diagnosis;
};

/// Drives a set of AsyncPrograms over a communication graph.
class AsyncEngine {
 public:
  /// Builds the engine with a built-in delay model; `seed` drives the
  /// stochastic schedules (convention: thread the caller's run seed through,
  /// never a fresh literal — see src/support/rng.h).
  AsyncEngine(const Graph& graph,
              std::vector<std::unique_ptr<AsyncProgram>> programs,
              DelayModel delay_model = DelayModel::kUnit,
              std::uint64_t seed = 1);

  /// Builds the engine with a custom delay schedule (the injection point the
  /// verification harness uses for adversarial interleavings).
  AsyncEngine(const Graph& graph,
              std::vector<std::unique_ptr<AsyncProgram>> programs,
              std::unique_ptr<DelaySchedule> schedule);

  /// Runs to quiescence (empty event queue) or the message cap.
  AsyncMetrics run(std::size_t max_messages = 10'000'000);

  /// Attaches an event observer (nullptr detaches). With no trace the
  /// instrumentation points reduce to a null check; see sim/trace.h.
  void set_trace(SimTrace* trace) noexcept { trace_ = trace; }

  /// Installs a fault plan (nullptr detaches) — the same seam as set_trace:
  /// with no plan every injection point is a single null check and the run
  /// is byte-identical to an engine built before fault injection existed.
  /// The plan is consulted at post time (drop/duplicate/corrupt/link-down)
  /// and at delivery time for node crashes: a crashed node's handlers stop,
  /// in-flight traffic to it is discarded, and it counts as terminated. Not
  /// owned; must outlive the run.
  void set_fault_plan(FaultPlan* plan) noexcept { faults_ = plan; }

  /// Attaches an allocation auditor (nullptr detaches): each dispatched
  /// event — a message delivery or a timer callback — is bracketed with
  /// begin_round/end_round, so the "round" granularity of the profile is
  /// one handler invocation (support/alloc_audit.h). Not owned; must
  /// outlive the run.
  void set_alloc_audit(AllocAudit* audit) noexcept { alloc_audit_ = audit; }

  /// Program of node v (for extracting results after the run). Calling this
  /// from inside a handler for a node other than the one executing is a
  /// cross-node state read and is reported to the attached trace.
  AsyncProgram& program(NodeId v) {
    note_program_access(v);
    return *programs_[v];
  }
  const AsyncProgram& program(NodeId v) const {
    note_program_access(v);
    return *programs_[v];
  }

 private:
  friend class AsyncContext;
  template <typename M>
  void post(NodeId from, const NeighborEntry& entry, M&& message, double now);
  template <typename M>
  Message& enqueue(NodeId from, NodeId to, ArcId channel, M&& message,
                   double now);
  void post_timer(NodeId v, double delay, std::int64_t cookie, double now);
  /// Dispatches one popped event: fault screening, then the handler.
  void dispatch_event(const AsyncEventKey& key, AsyncMetrics& metrics,
                      std::size_t& events,
                      std::vector<std::pair<double, std::uint64_t>>& delivered);
  std::string diagnose_stall();

  void note_program_access(NodeId v) const {
    if (trace_ != nullptr && current_node_ != kNoNode && current_node_ != v)
      trace_->on_state_read(current_node_, v);
  }

  const Graph& graph_;
  std::vector<std::unique_ptr<AsyncProgram>> programs_;
  AsyncEventSlab slab_;  // event payloads; the wheel holds their keys
  EventWheel wheel_;  // pending message and timer events
  std::vector<double> channel_clock_;  // last scheduled time per directed edge
  std::vector<std::uint64_t> delays_drawn_;  // delay-schedule index per channel
  std::unique_ptr<DelaySchedule> schedule_;
  bool unit_delay_ = false;  // schedule is the constant unit model
  std::uint64_t next_sequence_ = 0;
  Message dispatch_scratch_;  // delivery buffer; swaps capacity with slots
  SimTrace* trace_ = nullptr;
  FaultPlan* faults_ = nullptr;
  AllocAudit* alloc_audit_ = nullptr;  // non-null: bracket each event
  NodeId current_node_ = kNoNode;  // node whose handler is executing
};

}  // namespace fdlsp
