// α-synchronizer: runs a synchronous program set on the asynchronous engine.
//
// The paper's algorithms are stated in the synchronous LOCAL model; the
// asynchronous engine delivers messages one at a time with arbitrary (FIFO)
// per-channel delays. The classic bridge is a synchronizer: every node
// wraps its round messages in per-neighbor *frames*, executes round r only
// after the round-(r-1) frame from every neighbor has arrived, and a
// barrier rule decides when the global phase counter advances. The result
// is byte-identical to the serial SyncEngine — same inbox order (ascending
// sender id, send order within a sender), same phase boundaries, same
// round/message metrics — which makes the whole synchronous test corpus an
// oracle for the asynchronous engine (check_async_equivalence in
// verify/differential.h, swept by tests/async_equivalence_test.cpp).
//
// Like the sync engine's phase barrier, the round/phase boundary decision
// uses global knowledge: a RoundSynchronizer object counts round
// completions across all nodes and applies the engine's exact boundary
// logic (stop / phase-advance / run). Real deployments convergecast this
// decision; DESIGN.md §16 discusses the substitution, which is the same
// one the sync engine already makes for its barrier. Everything else —
// frames, lockstep, ahead-buffering, poll timers — is genuinely local.
//
// Lockstep bounds the skew: a neighbor can be at most one round ahead
// (executing round r+1 needs my round-r frame, which I only send when I
// execute round r), so one spare frame slot per neighbor suffices and all
// frame/inbox storage is recycled — a warmed synchronizer adds no
// allocator traffic to the steady state (tests/engine_alloc_test.cpp).
//
// The synchronizer assumes reliable in-order delivery: run it either on a
// fault-free engine or wrapped in the reliable transport (sim/reliable.h),
// which restores exactly-once FIFO delivery under message faults.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "graph/graph.h"
#include "sim/async_engine.h"
#include "sim/sync_engine.h"

namespace fdlsp {

/// Tag of the synchronizer's per-neighbor round frames. Payload layout:
/// [header, (inner_tag, word_count, words...)*] — inner senders are implied
/// by the frame's `from` field. The header word packs the round in its low
/// 32 bits and, in the high 32, the sender's index in the *receiver's*
/// adjacency list (computable at setup, since both ends read the same
/// graph) — receipt is O(1) instead of a per-frame binary search.
inline constexpr std::int32_t kSyncFrameTag = 0x51C0;

/// The global boundary rule of the synchronizer (see header comment):
/// counts round completions and replays SyncEngine::run's loop head — stop
/// when every node finished, advance the phase (applying on_phase to every
/// node in ascending id order) when nothing is in flight and every node
/// votes ready, otherwise release the next round. Shared by every
/// SyncOverAsyncProgram of a run; must outlive them.
class RoundSynchronizer {
 public:
  /// Decides the boundary before round 0 immediately (a population that
  /// starts finished stops without executing anything, exactly like the
  /// sync engine).
  explicit RoundSynchronizer(SyncProgramSet& set,
                             std::size_t max_rounds = 1'000'000);

  /// True once the run has ended (all nodes finished, or the round cap).
  bool stopped() const noexcept { return stopped_; }

  /// Current phase counter (what SyncContext::phase reports).
  std::size_t phase() const noexcept { return phase_; }

  /// True iff nodes may execute round `r` now: the boundary before `r` has
  /// been decided and the run has not stopped.
  bool may_execute(std::size_t r) const noexcept {
    return !stopped_ && decided_ && round_ == r;
  }

  /// Node report: round `r` executed (or skipped as finished-and-idle),
  /// having sent `sent` inner messages. The last report of a round decides
  /// the next boundary.
  void complete_round(std::size_t r, std::size_t sent);

  /// Metrics in the sync engine's terms; identical to what SyncEngine::run
  /// would have returned for the same program set.
  SyncMetrics metrics() const;

 private:
  void decide_boundary();
  bool all_finished() const;
  bool all_ready() const;

  SyncProgramSet* set_;
  std::size_t n_;
  std::size_t max_rounds_;
  std::size_t round_ = 0;      // round being decided or executed
  bool decided_ = false;       // boundary before round_ resolved to RUN
  bool stopped_ = false;
  bool completed_ = false;     // stopped with every node finished
  std::size_t completions_ = 0;   // nodes done with round_ so far
  std::size_t round_sent_ = 0;    // inner messages sent during round_
  std::size_t pending_ = 0;       // in-flight inner messages at the boundary
  std::size_t phase_ = 0;
  std::size_t phases_ = 0;
  std::size_t messages_ = 0;
};

/// One node of the synchronizer: an AsyncProgram that drives its slice of a
/// SyncProgramSet in lockstep rounds (see header comment). The graph, set
/// and coordinator must outlive the program.
class SyncOverAsyncProgram final : public AsyncProgram {
 public:
  SyncOverAsyncProgram(const Graph& graph, SyncProgramSet& set, NodeId self,
                       RoundSynchronizer& coordinator);

  void on_start(AsyncContext& ctx) override;
  void on_message(AsyncContext& ctx, Message& message) override;
  void on_timer(AsyncContext& ctx, std::int64_t cookie) override;
  bool finished() const override { return coordinator_->stopped(); }

 private:
  /// Waiting-on-boundary poll timer (cookie ≥ 0 so the reliable wrapper
  /// forwards it; inner sync programs never set timers, so there is no
  /// collision). Under unit delays every boundary is decided before any
  /// node needs it and no poll ever fires; under random/adversarial delays
  /// a node that holds all its frames before the boundary resolves re-polls
  /// every half time unit.
  static constexpr std::int64_t kPollCookie = 0;
  static constexpr double kPollDelay = 0.5;

  /// Executes every round currently unblocked (frames present and boundary
  /// decided); arms the poll timer when only the boundary is missing.
  void drive(AsyncContext& ctx);
  void execute_round(AsyncContext& ctx);
  void capture(NodeId to, const Message& message);
  std::size_t neighbor_index(NodeId v) const;
  Message& next_inbox_slot();
  bool have_all_frames() const noexcept {
    return round_ == 0 || cur_count_ == neighbors_.size();
  }

  SyncProgramSet* set_;
  RoundSynchronizer* coordinator_;
  NodeId self_;
  std::span<const NeighborEntry> neighbors_;
  /// rev_index_[idx]: this node's position in neighbor idx's adjacency
  /// list — stamped into outgoing frame headers (see kSyncFrameTag).
  std::vector<std::uint32_t> rev_index_;
  std::size_t round_ = 0;  // next round to execute
  // Frame slots, one per neighbor (ascending neighbor order). cur_ holds
  // round round_-1 frames (this round's inbox), ahead_ the round_ frames a
  // one-round-ahead neighbor may already have sent. All slots are recycled:
  // promotion swaps the vectors, receipt copy-assigns into the slot.
  std::vector<Message> cur_;
  std::vector<Message> ahead_;
  std::vector<char> cur_received_;
  std::vector<char> ahead_received_;
  std::size_t cur_count_ = 0;
  std::size_t ahead_count_ = 0;
  std::vector<Message> out_frames_;  // per-neighbor frame under construction
  std::vector<Message> inbox_;       // recycled unpacked-inner-message slab
  std::size_t inbox_live_ = 0;
  std::size_t sent_ = 0;  // inner sends captured during the current round
  bool poll_armed_ = false;
  SyncCaptureSink capture_sink_;
};

}  // namespace fdlsp
