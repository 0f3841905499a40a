// Synchronous message-passing engine (the paper's synchronous LOCAL model).
//
// Execution proceeds in lock-step rounds. In round r every node reads the
// messages its neighbors sent in round r-1, computes, and sends messages to
// neighbors. Nodes only ever address direct neighbors — multi-hop knowledge
// must be relayed, which is exactly what makes round counts meaningful.
//
// Phase barriers: distributed algorithms built from subroutines with
// data-dependent length (e.g. Luby's MIS inside DistMIS) need to agree
// globally that a subroutine has converged. Real deployments do this with a
// convergecast or a known round bound; the engine models it as a *barrier*:
// when every node votes ready, the engine advances the global phase counter
// without consuming a communication round. DESIGN.md discusses this
// substitution; round counts reported by the engine are the communication
// rounds actually consumed.
//
// Programs: the engine drives one SyncProgramSet, an indexed-callback
// interface that owns every node's state (DESIGN.md §14). It is the only
// program interface — every synchronous protocol, and the reliable
// wrapper that hardens one (sim/reliable.h), is written as a set.
//
// Sleeping nodes (DESIGN.md §11): a node may promise, through
// SyncContext::sleep_until, that its next few empty-inbox rounds would do
// nothing. The engine keeps a runnable bitmap — the awake unfinished
// nodes, this round's mail recipients, and the due entries of a calendar
// of sleepers — and visits only its set bits, in ascending id order (the
// serial send order). A round therefore costs O(awake + n/64), not O(n),
// and a node that never sleeps runs every round exactly as before. Crash
// times under a fault plan are consumed from one sorted list, not by an
// O(n) rescan per round.
//
// Sharded rounds (DESIGN.md §11, §14): node callbacks are protocol-
// isolated — a node's callback only touches that node's state, its shard's
// scratch and the read-only graph (fdlsp-lint's cross-node-state rule
// checks every set's body) — so set_shards(S) partitions the node id space
// into S contiguous shards and runs each on its own thread: the caller's
// thread is shard 0, and run() starts S-1 threads for the others and joins
// them before it returns. The threads meet at barriers, never at a task
// queue. Each shard owns its slice of state: its nodes' inbox slabs, a
// ChannelTable slice for send-side validation, and an S-lane row of send
// slabs, one lane per destination shard. After the round barrier each
// shard merges the lanes addressed to it in ascending source-shard order —
// which reproduces the serial (sender id, send order) enqueue order
// exactly, so the run is byte-identical to the serial engine for any shard
// count. Serial execution is the one-shard case of the same round body,
// delivering directly instead of through lanes. Trace and fault seams pin
// one shard: they are observation/adversary channels, not hot paths, and
// their event ordering contracts stay exactly as documented.
#pragma once

#include <algorithm>
#include <compare>
#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "graph/graph.h"
#include "sim/channel_table.h"
#include "sim/fault.h"
#include "sim/message.h"
#include "sim/shard.h"
#include "sim/trace.h"

namespace fdlsp {

class AllocAudit;
class SyncEngine;

/// Capture target for a context's sends (see SyncContext::reframed and
/// SyncContext::external): the sink borrows the message for the duration
/// of the call — it must copy what it keeps — and the message's `from`
/// field is unspecified (the capturing layer knows which node it drives).
/// A spilled payload is never materialized into a temporary per receiver,
/// so a capture layer with recycled buffers (sim/synchronizer.h) adds no
/// allocator traffic to a program's steady state.
using SyncCaptureSink = std::function<void(NodeId to, const Message& message)>;

/// One send buffered by a sharded round's shard, merged in canonical order
/// after the shard barrier (engine internal).
struct SyncBufferedSend {
  NodeId to;
  Message message;
};

/// Per-lane slab of buffered sends (engine internal). Slots are recycled —
/// reset() rewinds the live count without destroying elements — so message
/// payload capacities survive across rounds and the steady state buffers
/// without allocating, mirroring the engine's inbox slabs.
class SyncSendSlab {
 public:
  /// Appends by move; the displaced slot payload migrates into the source
  /// (SmallPayload's swapping move-assignment), never freed here.
  void add(NodeId to, Message&& message) {
    if (count_ < sends_.size()) {
      SyncBufferedSend& slot = sends_[count_];
      slot.to = to;
      slot.message = std::move(message);
    } else {
      sends_.push_back(SyncBufferedSend{to, std::move(message)});
    }
    ++count_;
  }

  /// Appends by copy-assign — the slot's payload capacity is reused, so a
  /// warmed slab buffers broadcast copies with zero allocator traffic. The
  /// stored copy's `from` field is stamped with `from` (the source message
  /// is shared by all receivers and never mutated).
  void add_copy(NodeId to, const Message& message, NodeId from) {
    if (count_ < sends_.size()) {
      SyncBufferedSend& slot = sends_[count_];
      // Dead slots past the live count are unordered; when this slot's
      // payload capacity is too small, borrow a big-enough one from the
      // dead region so the slab's total spilled capacity is recycled
      // instead of every slot index growing independently. The scan is
      // windowed: per-node inbox rows are degree-sized so a window covers
      // them entirely, but a shard lane holds a whole shard's sends for
      // the round, and an unbounded scan that mostly finds nothing (cold
      // slots hold no spilled capacity yet) turns the warm-up quadratic
      // in the lane size. Beyond the window the slot grows its own
      // capacity — a bounded number of times, so the allocation-free
      // steady state is unchanged.
      if (message.data.size() > slot.message.data.capacity()) {
        const std::size_t window =
            std::min(sends_.size(), count_ + 1 + kBorrowWindow);
        for (std::size_t j = count_ + 1; j < window; ++j) {
          if (sends_[j].message.data.capacity() >= message.data.size()) {
            slot.message.data.swap(sends_[j].message.data);
            break;
          }
        }
      }
      slot.to = to;
      slot.message = message;
    } else {
      sends_.push_back(SyncBufferedSend{to, message});
    }
    sends_[count_].message.from = from;
    ++count_;
  }

  /// The live entries, in send order.
  std::span<SyncBufferedSend> entries() noexcept {
    return {sends_.data(), count_};
  }

  /// Rewinds the live count; elements (and their capacities) stay alive.
  void reset() noexcept { count_ = 0; }

 private:
  /// Dead-region capacity-borrow scan bound (see add_copy).
  static constexpr std::size_t kBorrowWindow = 32;

  std::vector<SyncBufferedSend> sends_;
  std::size_t count_ = 0;
};

/// Per-round context handed to a node program; valid only during on_round.
class SyncContext {
 public:
  /// This node's id.
  NodeId self() const noexcept { return self_; }

  /// Current round number (0-based).
  std::size_t round() const noexcept { return round_; }

  /// Current phase counter (incremented by barriers).
  std::size_t phase() const noexcept { return phase_; }

  /// Index of the engine shard executing this callback; 0 on the serial
  /// path. Program sets (SyncProgramSet) may index per-shard scratch by
  /// this value race-free: exactly one thread drives a shard's callbacks,
  /// and the serial engine always reports shard 0.
  std::size_t shard() const noexcept { return shard_; }

  /// Direct neighbors of this node (local topology knowledge).
  std::span<const NeighborEntry> neighbors() const noexcept {
    return neighbors_;
  }

  /// Sends a message to a direct neighbor, delivered next round.
  void send(NodeId to, Message message);

  /// Broadcasts a message the caller is done with: d-1 payload copies plus
  /// one move for the final neighbor.
  void broadcast(Message&& message);

  /// Broadcasts a message the caller keeps (e.g. a reusable scratch): the
  /// engine copy-assigns into its recycled inbox slots, so a warmed run
  /// broadcasts with zero allocator traffic even for spilled payloads —
  /// the zero-alloc seam DistMIS's flood relays ride (DESIGN.md §11). The
  /// message's `from` field is left untouched; the delivered copies carry
  /// this node's id regardless.
  void broadcast(const Message& message);

  /// Promises that, with an empty inbox, this node's on_round in every
  /// round before `round` would change nothing and send nothing, so the
  /// engine skips those calls (DESIGN.md §11). The node runs again at
  /// `round`, or earlier when mail arrives for it or the phase advances:
  /// on_phase cancels every sleep. A node that never calls this runs next
  /// round, exactly as without it; `round` at most one past the current
  /// round is the same as not calling. The last call of a callback wins.
  /// Only the context the engine handed out counts: reframed and external
  /// copies (a set layered inside another, the α-synchronizer) ignore the
  /// call, because their round counter is not the engine's. A finished
  /// node still runs only on mail, whatever it promised.
  void sleep_until(std::size_t round) noexcept {
    if (capture_ == nullptr) wake_ = round;
  }

  /// A copy of this context for a program set layered *inside* another
  /// (sim/reliable.h): round() reports the wrapped set's own round counter
  /// and send()/broadcast() feed `capture` instead of the engine, so the
  /// outer set can frame and schedule the traffic itself. self(), shard()
  /// and neighbors() are unchanged, so the wrapped set indexes its state
  /// and per-shard scratch exactly as it would unwrapped. `capture` must
  /// be non-null and outlive the copy.
  SyncContext reframed(std::size_t round,
                       const SyncCaptureSink* capture) const {
    FDLSP_REQUIRE(capture != nullptr, "reframed contexts need a capture sink");
    SyncContext copy = *this;
    copy.round_ = round;
    copy.capture_ = capture;
    return copy;
  }

  /// A detached context for harness layers that drive program sets outside
  /// a SyncEngine (the round synchronizer, sim/synchronizer.h): there is no
  /// engine behind it — send()/broadcast() feed `capture`, which must be
  /// non-null and outlive the context.
  static SyncContext external(NodeId self,
                              std::span<const NeighborEntry> neighbors,
                              std::size_t round, std::size_t phase,
                              const SyncCaptureSink* capture) {
    FDLSP_REQUIRE(capture != nullptr, "external contexts need a capture sink");
    SyncContext ctx(nullptr, self, neighbors, round, phase);
    ctx.capture_ = capture;
    return ctx;
  }

 private:
  friend class SyncEngine;
  SyncContext(SyncEngine* engine, NodeId self,
              std::span<const NeighborEntry> neighbors, std::size_t round,
              std::size_t phase)
      : engine_(engine),
        self_(self),
        neighbors_(neighbors),
        round_(round),
        phase_(phase) {}

  // send() for targets already known to be neighbors — broadcast iterates
  // neighbors_, which the engine built from the graph, so the per-send
  // neighbor-ness validation (a binary search) would re-prove an invariant
  // that holds by construction. Direct send() keeps the check.
  void send_trusted(NodeId to, Message message);

  // Copying twin of send_trusted for broadcast(const Message&): the payload
  // is copy-assigned into a recycled slot instead of materializing a
  // temporary Message per receiver.
  void send_trusted_copy(NodeId to, const Message& message);

  SyncEngine* engine_;
  NodeId self_;
  std::span<const NeighborEntry> neighbors_;
  std::size_t round_;
  std::size_t phase_;
  std::size_t wake_ = 0;  // sleep_until() target; 0 = run next round
  // Non-null: capture instead of send (reframed and external contexts).
  const SyncCaptureSink* capture_ = nullptr;
  // Non-null on sharded rounds: the executing shard's row of per-
  // destination-shard send lanes. Sends are buffered in
  // lanes_[plan_.shard_of(to)] for the post-barrier merge instead of
  // touching state another shard's thread owns.
  SyncSendSlab* lanes_ = nullptr;
  ShardPlan plan_{};                        // sharded rounds only
  std::size_t shard_ = 0;                   // executing shard (0 = serial)
  const ChannelTable* channels_ = nullptr;  // shard-local send validation
};

/// The node programs of a synchronous run: a whole population behind one
/// object, with the node id explicit in every callback (DESIGN.md §14). A
/// set keeps hot per-node state in parallel arrays (or one value per node)
/// indexed by node id and per-shard scratch indexed by ctx.shard(), so a
/// shard's round touches dense shard-local memory with no heap object per
/// node. A callback for node v may touch only v's state and the scratch
/// of ctx.shard(): shards run concurrently.
class SyncProgramSet {
 public:
  virtual ~SyncProgramSet() = default;

  /// Number of nodes (must equal the graph's).
  virtual std::size_t size() const = 0;

  /// Called once at the start of every run() with the shard count the run
  /// will execute with (1 on the serial path), before any other callback.
  /// Sets that keep per-shard scratch size it here. A set prepared for one
  /// shard count must not silently be run at another — per-shard state
  /// (e.g. learned colors) would be invisible to the new partition — so
  /// implementations are expected to treat a changed count as a contract
  /// error once real state exists.
  virtual void prepare_shards(std::size_t shards) { (void)shards; }

  /// Executes one round of node v: consume this round's inbox, send next
  /// round's messages. Called once per round for every node that has mail,
  /// and for every unfinished node that is not asleep, in unspecified order
  /// (sends are buffered, so order cannot be observed). A callback puts its
  /// node to sleep with ctx.sleep_until(r), promising that its empty-inbox
  /// calls before round r would change nothing and send nothing; the node
  /// runs again at r, on its next mail, or at the next phase advance. A
  /// set that never sleeps is called every round it is unfinished.
  virtual void on_round(NodeId v, SyncContext& ctx,
                        std::span<const Message> inbox) = 0;

  /// True when node v is ready for the current phase to end. The engine
  /// advances the phase (calling on_phase for every node) once all nodes
  /// vote ready *and* no messages are in flight.
  virtual bool ready_for_phase_advance(NodeId v) const = 0;

  /// Notification to node v that the global phase counter advanced.
  virtual void on_phase(NodeId v, std::size_t new_phase) = 0;

  /// True when node v has terminated. The run ends when all nodes have.
  virtual bool finished(NodeId v) const = 0;
};

/// Metrics of a synchronous run.
struct SyncMetrics {
  std::size_t rounds = 0;    ///< communication rounds consumed
  std::size_t messages = 0;  ///< total point-to-point messages delivered
  std::size_t phases = 0;    ///< barrier advances performed
  bool completed = false;    ///< all nodes finished within the round cap
  FaultStats faults;         ///< injected faults (all zero without a plan)
};

/// Drives a SyncProgramSet over a communication graph.
class SyncEngine {
 public:
  /// Most shards (so threads) one run() starts; larger counts are capped.
  static constexpr std::size_t kMaxShards = 64;

  /// Neither the graph nor the set is owned; both must outlive the engine.
  /// The set must hold one program per node. Results are read from the set
  /// after run().
  SyncEngine(const Graph& graph, SyncProgramSet& set);

  /// Runs until every program reports finished() or the round cap is hit.
  SyncMetrics run(std::size_t max_rounds = 1'000'000);

  /// Attaches an event observer (nullptr detaches). With no trace the
  /// instrumentation points reduce to a null check; see sim/trace.h.
  void set_trace(SimTrace* trace) noexcept { trace_ = trace; }

  /// Installs a fault plan (nullptr detaches) — the same seam as set_trace:
  /// with no plan every injection point is a single null check and the run
  /// is byte-identical to an engine built before fault injection existed.
  /// The plan is consulted at send time (drop/duplicate/corrupt/link-down)
  /// and each round for node crashes: a crashed node's callbacks stop, its
  /// queued inbox is discarded, and it counts as terminated. Not owned; must
  /// outlive the run.
  void set_fault_plan(FaultPlan* plan) noexcept { faults_ = plan; }

  /// Runs the next run() on `shards` contiguous node shards, one thread
  /// each: the caller's thread runs shard 0 and run() starts and joins the
  /// others. 0 or 1 (the default) runs serially; a count above the node
  /// count or kMaxShards is capped there. The result is byte-identical to
  /// the serial engine for any count: each shard buffers its sends per
  /// destination shard, and the post-barrier merge drains each
  /// destination's lanes in ascending source-shard order — exactly the
  /// serial enqueue order. An attached trace or fault plan pins one shard
  /// so their event ordering contracts are untouched.
  void set_shards(std::size_t shards) noexcept { shards_config_ = shards; }

  /// Number of shards (and threads) the next run() will execute with: 1
  /// whenever a seam forces the serial path (trace or faults attached,
  /// empty graph), otherwise the set_shards() count clamped to
  /// [1, min(nodes, kMaxShards)].
  std::size_t planned_shards() const noexcept;

  /// Attaches an allocation auditor (nullptr detaches): each communication
  /// round is bracketed with begin_round/end_round so per-round allocator
  /// traffic lands in the auditor's profile (support/alloc_audit.h). Unlike
  /// trace/fault seams the auditor only samples process-global counters, so
  /// it does NOT force the serial path — sharded rounds are audited too.
  /// Not owned; must outlive the run.
  void set_alloc_audit(AllocAudit* audit) noexcept { alloc_audit_ = audit; }

 private:
  friend class SyncContext;
  /// A node leaving the runnable set after its callback (engine internal):
  /// asleep until `round`, or — with `round` 0 — finished, crashed, or
  /// re-sleeping to a wake its live calendar entry already holds.
  struct SyncWake {
    std::size_t round;
    NodeId node;
    auto operator<=>(const SyncWake&) const = default;
  };

  struct StepCounts;  // what one shard's step changed (sync_engine.cpp)
  struct RunFrame;    // what one run()'s shards share (sync_engine.cpp)

  void wake_runnable(std::size_t round);
  void settle(NodeId v, bool finished, std::size_t wake, std::size_t round,
              std::vector<SyncWake>& settled);
  void apply_settled();
  void wake_all(const std::vector<char>& finished);
  bool down(NodeId v) const;
  void refresh(NodeId v, RunFrame& frame, StepCounts& delta);
  void round_shard(std::size_t s, RunFrame& frame);
  void phase_shard(std::size_t s, RunFrame& frame);
  void deliver(NodeId from, NodeId to, Message&& message);
  void deliver_trusted(NodeId from, NodeId to, Message&& message);
  void deliver_trusted_copy(NodeId from, NodeId to, const Message& message);
  void deliver_faulted(ArcId channel, NodeId from, NodeId to, Message message);
  void enqueue(NodeId from, NodeId to, Message&& message);
  void enqueue_copy(NodeId from, NodeId to, const Message& message);
  Message& next_slot(NodeId to, std::size_t words, std::vector<NodeId>& dirty);

  const Graph& graph_;
  SyncProgramSet* set_;  // the programs driving the run
  // Inbox slabs: per-node message vectors with a separately tracked live
  // count. Between rounds only the counts of the boxes named in the dirty
  // lists are rewound — the Message elements beyond the count stay alive,
  // so both the vector capacity and any spilled payload capacity survive
  // and steady-state rounds allocate nothing. Messages are copy-assigned
  // (broadcast const&) or swap-moved into the recycled slots; the slab
  // never destroys an element until the engine itself dies.
  std::vector<std::vector<Message>> inbox_;       // delivered this round
  std::vector<std::vector<Message>> next_inbox_;  // sent this round
  std::vector<std::size_t> inbox_count_;  // live messages per inbox_ slab
  std::vector<std::size_t> next_count_;   // live messages per next_ slab
  // Dirty lists are bucketed per destination shard so the sharded lane
  // merge appends without sharing: serial rounds use bucket 0, the merge
  // of shard d uses bucket d. The round swap rewinds every bucket, so which
  // bucket recorded a box never matters for correctness.
  std::vector<std::vector<NodeId>> dirty_inbox_;  // inbox_ boxes w/ messages
  std::vector<std::vector<NodeId>> dirty_next_;   // next_inbox_ boxes
  std::size_t pending_messages_ = 0;
  std::size_t total_messages_ = 0;
  // --- sleeping nodes (sized at run start, recycled across runs) ---
  // Bit v of runnable_ is set between rounds iff v is unfinished and
  // awake; wake_runnable() adds this round's mail recipients and due
  // sleepers, and the round visits exactly the set bits. The bitmap is
  // read-only while callbacks run: each shard buffers its nodes' exits
  // (SyncWake) in settled_[shard], applied after the round by the caller's
  // thread, so no bitmap word is ever written by two shards.
  std::vector<std::uint64_t> runnable_;
  // Per node: the round its live calendar entry wakes it, 0 when none.
  // Calendar entries are checked against it lazily, so an entry a mail
  // wake or a phase advance made stale never causes a call.
  std::vector<std::size_t> wake_;
  std::vector<SyncWake> calendar_;               // min-heap on (round, node)
  std::vector<std::vector<SyncWake>> settled_;   // per shard, this round
  SimTrace* trace_ = nullptr;
  FaultPlan* faults_ = nullptr;
  AllocAudit* alloc_audit_ = nullptr;  // non-null: bracket rounds
  std::size_t shards_config_ = 0;      // set_shards(); 0 or 1 = serial
  ShardPlan plan_{};                   // partition of the current run
  // --- sharded-run state (sized on the first sharded run) ---
  std::vector<SyncSendSlab> lanes_;        // S*S lanes, index src*S + dst
  std::vector<ChannelTable> shard_channels_;  // per-shard send slices
  std::size_t sliced_shards_ = 0;  // shard count the slices were built for
  ChannelTable channels_;                     // fault path only
  std::vector<std::uint64_t> channel_posts_;  // fault path only
  std::size_t current_round_ = 0;  // the round run() is executing
};

}  // namespace fdlsp
