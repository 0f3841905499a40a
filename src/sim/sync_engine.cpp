#include "sim/sync_engine.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <utility>

#include "support/alloc_audit.h"
#include "support/check.h"
#include "support/thread_pool.h"

namespace fdlsp {

// fdlsp-lint: hot — per-message steady-state path, no allocator traffic
void SyncContext::send(NodeId to, Message message) {
  message.from = self_;
  if (capture_ != nullptr) {
    (*capture_)(to, message);
    return;
  }
  if (lanes_ != nullptr) {
    // Parallel round: validate against this shard's ChannelTable slice
    // (shard-local memory, doubles as the neighbor proof) and buffer the
    // send in the lane of the destination's shard for the post-barrier
    // merge; shared engine state is untouched.
    FDLSP_REQUIRE(channels_->channel(engine_->graph_, self_, to) != kNoArc,
                  "nodes may only message direct neighbors");
    lanes_[plan_.shard_of(to)].add(to, std::move(message));
    return;
  }
  engine_->deliver(self_, to, std::move(message));
}

// fdlsp-lint: hot — per-message steady-state path, no allocator traffic
void SyncContext::send_trusted(NodeId to, Message message) {
  message.from = self_;
  if (capture_ != nullptr) {
    (*capture_)(to, message);
    return;
  }
  if (lanes_ != nullptr) {
    lanes_[plan_.shard_of(to)].add(to, std::move(message));
    return;
  }
  engine_->deliver_trusted(self_, to, std::move(message));
}

// fdlsp-lint: hot — per-message steady-state path, no allocator traffic
void SyncContext::send_trusted_copy(NodeId to, const Message& message) {
  if (capture_ != nullptr) {
    // The capture sink borrows: no temporary, no ownership transfer. The
    // sink knows the sending node; `from` stays whatever the caller's
    // scratch holds.
    (*capture_)(to, message);
    return;
  }
  if (lanes_ != nullptr) {
    lanes_[plan_.shard_of(to)].add_copy(to, message, self_);
    return;
  }
  engine_->deliver_trusted_copy(self_, to, message);
}

// fdlsp-lint: hot — per-message steady-state path, no allocator traffic
void SyncContext::broadcast(Message&& message) {
  if (neighbors_.empty()) return;
  for (std::size_t i = 0; i + 1 < neighbors_.size(); ++i)
    send_trusted_copy(neighbors_[i].to, message);
  // The last copy is the original: move instead of copy, so a broadcast
  // to d neighbors performs d-1 payload copies, not d.
  send_trusted(neighbors_.back().to, std::move(message));
}

// fdlsp-lint: hot — per-message steady-state path, no allocator traffic
void SyncContext::broadcast(const Message& message) {
  for (const NeighborEntry& neighbor : neighbors_)
    send_trusted_copy(neighbor.to, message);
}

SyncEngine::SyncEngine(const Graph& graph, SyncProgramSet& set)
    : graph_(graph), set_(&set) {
  FDLSP_REQUIRE(set_->size() == graph_.num_nodes(),
                "one program per node required");
  const std::size_t n = graph_.num_nodes();
  inbox_.resize(n);
  next_inbox_.resize(n);
  inbox_count_.assign(n, 0);
  next_count_.assign(n, 0);
  dirty_inbox_.resize(1);  // serial path uses bucket 0
  dirty_next_.resize(1);
}

std::size_t SyncEngine::planned_shards() const noexcept {
  const std::size_t n = graph_.num_nodes();
  if (pool_ == nullptr || trace_ != nullptr || faults_ != nullptr || n == 0 ||
      pool_->on_worker_thread())
    return 1;
  const std::size_t requested =
      shards_config_ != 0 ? shards_config_
                          : std::max<std::size_t>(pool_->size(), 1) * 4;
  return std::min(n, std::max<std::size_t>(1, requested));
}

// fdlsp-lint: hot — per-message steady-state path, no allocator traffic
void SyncEngine::deliver(NodeId from, NodeId to, Message&& message) {
  if (faults_ != nullptr) {
    // One CSR row search resolves the directed channel and validates
    // neighbor-ness at once — the old path did a has_edge binary search
    // plus find_edge plus an Edge load for every message.
    const ArcId channel = channels_.channel(graph_, from, to);
    FDLSP_REQUIRE(channel != kNoArc,
                  "nodes may only message direct neighbors");
    deliver_faulted(channel, from, to, std::move(message));
    return;
  }
  FDLSP_REQUIRE(graph_.has_edge(from, to),
                "nodes may only message direct neighbors");
  enqueue(from, to, std::move(message));
}

// fdlsp-lint: hot — per-message steady-state path, no allocator traffic
void SyncEngine::deliver_trusted(NodeId from, NodeId to, Message&& message) {
  if (faults_ != nullptr) {
    // The channel lookup subsumes the neighbor-ness proof, so the fault
    // path costs the same whether the sender was validated or trusted.
    const ArcId channel = channels_.channel(graph_, from, to);
    FDLSP_ASSERT(channel != kNoArc, "trusted send to a non-neighbor");
    deliver_faulted(channel, from, to, std::move(message));
    return;
  }
  enqueue(from, to, std::move(message));
}

// fdlsp-lint: hot — per-message steady-state path, no allocator traffic
void SyncEngine::deliver_trusted_copy(NodeId from, NodeId to,
                                      const Message& message) {
  if (faults_ != nullptr) {
    const ArcId channel = channels_.channel(graph_, from, to);
    FDLSP_ASSERT(channel != kNoArc, "trusted send to a non-neighbor");
    // The fault path mutates per-copy (corruption) and forces serial
    // execution anyway; materialize the copy it expects.
    Message copy = message;
    copy.from = from;
    deliver_faulted(channel, from, to, std::move(copy));
    return;
  }
  enqueue_copy(from, to, message);
}

/// The next recycled slot of `to`'s next-round inbox; grows the slab only
/// until it reaches the box's high-water mark. `words` is the payload size
/// about to be copy-assigned in (0 for the swapping move path): when the
/// next slot's capacity is too small, a dead slot past the live count with
/// enough capacity is swapped into position first. Dead slots are
/// unordered — only [0, count) is ever observed — so this recycles the
/// box's total spilled capacity instead of requiring every slot *index* to
/// independently grow to the largest payload that ever lands there.
/// `dirty` is the dirty-list bucket recording first-touched boxes: the
/// serial path passes bucket 0, the parallel lane merge for destination
/// shard d passes bucket d (so concurrent merges never share a bucket).
// fdlsp-lint: hot — per-message steady-state path, no allocator traffic
Message& SyncEngine::next_slot(NodeId to, std::size_t words,
                               std::vector<NodeId>& dirty) {
  std::vector<Message>& box = next_inbox_[to];
  std::size_t& count = next_count_[to];
  // Invariant: a box with live messages is always listed in some dirty
  // bucket, so the round swap rewinds only boxes that actually held
  // messages.
  if (count == 0) dirty.push_back(to);
  if (count == box.size()) {
    box.emplace_back();
  } else if (words > box[count].data.capacity()) {
    for (std::size_t j = count + 1; j < box.size(); ++j) {
      if (box[j].data.capacity() >= words) {
        box[count].data.swap(box[j].data);
        break;
      }
    }
  }
  return box[count++];
}

// fdlsp-lint: hot — per-message steady-state path, no allocator traffic
void SyncEngine::enqueue(NodeId from, NodeId to, Message&& message) {
  // on_send fires once per copy actually enqueued (dropped messages emit no
  // event, duplicates emit two), keeping the per-channel send/deliver
  // pairing the happens-before checker relies on exact under faults.
  if (trace_ != nullptr) trace_->on_send(from, to);
  // Swap-based move-assignment: the slot's previous payload capacity
  // migrates into the (expiring) source instead of being freed here.
  next_slot(to, 0, dirty_next_[0]) = std::move(message);
  ++pending_messages_;
  ++total_messages_;
}

// fdlsp-lint: hot — per-message steady-state path, no allocator traffic
void SyncEngine::enqueue_copy(NodeId from, NodeId to, const Message& message) {
  if (trace_ != nullptr) trace_->on_send(from, to);
  // Copy-assignment reuses the recycled slot's payload capacity — the
  // zero-alloc landing pad for broadcast(const Message&).
  Message& slot = next_slot(to, message.data.size(), dirty_next_[0]);
  slot = message;
  slot.from = from;
  ++pending_messages_;
  ++total_messages_;
}

// fdlsp-lint: hot — per-message steady-state path, no allocator traffic
void SyncEngine::deliver_faulted(ArcId channel, NodeId from, NodeId to,
                                 Message message) {
  const double now = static_cast<double>(current_round_);
  // A crashed sender never runs, but sends from the crash round itself are
  // possible when the crash lands mid-round; treat both endpoints dead.
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
  const std::uint64_t index = channel_posts_[channel]++;
  switch (faults_->channel_action(channel, index, now)) {
    case FaultAction::kDrop:
      return;
    case FaultAction::kDuplicate:
      enqueue_copy(from, to, message);
      enqueue(from, to, std::move(message));
      return;
    case FaultAction::kCorrupt:
      faults_->corrupt_payload(channel, index, message);
      enqueue(from, to, std::move(message));
      return;
    case FaultAction::kDeliver:
      enqueue(from, to, std::move(message));
      return;
  }
  FDLSP_REQUIRE(false, "unknown fault action");
}

namespace {

constexpr std::size_t kWordBits = 64;

void set_bit(std::vector<std::uint64_t>& bits, NodeId v) noexcept {
  bits[v / kWordBits] |= std::uint64_t{1} << (v % kWordBits);
}

void clear_bit(std::vector<std::uint64_t>& bits, NodeId v) noexcept {
  bits[v / kWordBits] &= ~(std::uint64_t{1} << (v % kWordBits));
}

/// Visits the set bits of `bitmap` in [lo, hi), ascending. Each word is
/// read once, before its nodes run; callbacks never write the bitmap.
template <typename Visit>
void for_each_set_bit(const std::vector<std::uint64_t>& bitmap,
                      std::size_t lo, std::size_t hi, Visit&& visit) {
  if (lo >= hi) return;
  const std::size_t first = lo / kWordBits;
  const std::size_t last = (hi - 1) / kWordBits;
  for (std::size_t w = first; w <= last; ++w) {
    std::uint64_t bits = bitmap[w];
    if (w == first) bits &= ~std::uint64_t{0} << (lo % kWordBits);
    if (w == last && hi % kWordBits != 0)
      bits &= (std::uint64_t{1} << (hi % kWordBits)) - 1;
    while (bits != 0) {
      const auto bit = static_cast<std::size_t>(std::countr_zero(bits));
      bits &= bits - 1;
      visit(static_cast<NodeId>(w * kWordBits + bit));
    }
  }
}

}  // namespace

/// Adds this round's mail recipients and due sleepers to the runnable set.
/// Mail wakes its recipient whether it sleeps or has finished; the dirty
/// buckets after the slab swap list exactly the boxes holding mail. A
/// calendar entry whose round no longer matches its node's wake_ is stale
/// (a mail wake, a phase advance or a crash ended that sleep) and is
/// dropped without a call.
// fdlsp-lint: hot — per-round steady-state path, no allocator traffic
void SyncEngine::wake_runnable(std::size_t round) {
  for (const std::vector<NodeId>& bucket : dirty_inbox_)
    for (const NodeId v : bucket) set_bit(runnable_, v);
  while (!calendar_.empty() && calendar_.front().round <= round) {
    const SyncWake due = calendar_.front();
    std::pop_heap(calendar_.begin(), calendar_.end(), std::greater<>{});
    calendar_.pop_back();
    if (wake_[due.node] == due.round) set_bit(runnable_, due.node);
  }
}

/// Records where node v goes after its callback in round `round`: it stays
/// runnable when unfinished and awake; otherwise it leaves the runnable set
/// through `settled` (its shard's buffer), with a calendar entry when it
/// sleeps to a new wake round. Writes only v's own wake_ slot.
// fdlsp-lint: hot — per-callback steady-state path, no allocator traffic
void SyncEngine::settle(NodeId v, bool finished, std::size_t wake,
                        std::size_t round, std::vector<SyncWake>& settled) {
  if (!finished && wake <= round + 1) {
    wake_[v] = 0;
    return;
  }
  const std::size_t until = finished ? 0 : wake;
  // Re-sleeping to the round the live entry already holds adds no entry.
  settled.push_back(SyncWake{until != wake_[v] ? until : 0, v});
  wake_[v] = until;
}

/// Applies every shard's buffered exits to the bitmap and the calendar, on
/// the driving thread after the round.
// fdlsp-lint: hot — per-round steady-state path, no allocator traffic
void SyncEngine::apply_settled() {
  for (std::vector<SyncWake>& settled : settled_) {
    for (const SyncWake& exit : settled) {
      clear_bit(runnable_, exit.node);
      if (exit.round == 0) continue;
      calendar_.push_back(exit);
      std::push_heap(calendar_.begin(), calendar_.end(), std::greater<>{});
    }
    settled.clear();
  }
}

/// Makes every unfinished node runnable and cancels every sleep: the run's
/// start, and each phase advance.
void SyncEngine::wake_all(const std::vector<char>& finished) {
  std::fill(runnable_.begin(), runnable_.end(), std::uint64_t{0});
  std::fill(wake_.begin(), wake_.end(), std::size_t{0});
  calendar_.clear();  // every entry is stale now
  for (NodeId v = 0; v < finished.size(); ++v)
    if (finished[v] == 0) set_bit(runnable_, v);
}

SyncMetrics SyncEngine::run(std::size_t max_rounds) {
  SyncMetrics metrics;
  std::size_t phase = 0;
  const std::size_t n = graph_.num_nodes();
  // Fault path: (crash round, node) ascending; the round loop consumes the
  // due prefix instead of rescanning every node.
  std::vector<std::pair<std::size_t, NodeId>> crashes;
  if (faults_ != nullptr) {
    faults_->on_run_start();
    channel_posts_.assign(2 * graph_.num_edges(), 0);
    // Per-(neighbor-pair) channel ids, computed once and reused for every
    // faulted message.
    channels_.build(graph_);
    // A node is down from the first round at or after its crash time.
    for (NodeId v = 0; v < n; ++v)
      if (faults_->node_crashes(v))
        crashes.emplace_back(
            static_cast<std::size_t>(std::ceil(faults_->crash_time(v))), v);
    std::sort(crashes.begin(), crashes.end());
  }
  std::size_t next_crash = 0;

  // Parallel rounds need protocol isolation *and* silent seams: a trace
  // observes callback/send order and a fault plan mutates per-message
  // state, so either forces the serial path (they are observation and
  // adversary channels, not hot paths). planned_shards() folds the whole
  // predicate — it returns 1 whenever a seam forces serial, including a
  // pooled engine nested in a pooled sweep on the same pool, which must
  // not wait for its own task — and one planned shard runs serially.
  const std::size_t shards = planned_shards();
  const bool parallel = shards > 1;
  // Program sets size per-shard scratch here, before any callback runs.
  // The serial path prepares for exactly one shard (ctx.shard() == 0).
  set_->prepare_shards(shards);

  // A program's finished/ready state only changes inside its own callbacks
  // (cross-node mutation would be a protocol-isolation violation, flagged by
  // the happens-before checker), so both predicates are cached per node and
  // refreshed right after each callback. The old loop rescanned every
  // program up to three times per round; this one touches only the nodes
  // that actually ran. A crashed node counts as terminated: its callbacks
  // stop and it neither blocks the barrier nor run completion.
  std::vector<char> finished(n, 0);
  std::vector<char> ready(n, 0);  // finished, or voting for phase advance
  std::size_t finished_count = 0;
  std::size_t ready_count = 0;
  const auto is_down = [&](NodeId v) {
    return faults_ != nullptr &&
           faults_->node_down(v, static_cast<double>(current_round_));
  };
  const auto refresh = [&](NodeId v) {
    const bool fin = is_down(v) || set_->finished(v);
    const bool rdy = fin || set_->ready_for_phase_advance(v);
    if (fin != (finished[v] != 0)) {
      finished[v] = fin ? 1 : 0;
      if (fin) ++finished_count; else --finished_count;
    }
    if (rdy != (ready[v] != 0)) {
      ready[v] = rdy ? 1 : 0;
      if (rdy) ++ready_count; else --ready_count;
    }
  };
  current_round_ = 0;
  for (NodeId v = 0; v < n; ++v) refresh(v);

  // Wake state, sized once per run and recycled across runs like the
  // inbox slabs (a later run with fewer shards leaves buffers empty).
  runnable_.resize((n + kWordBits - 1) / kWordBits);
  wake_.resize(n);
  if (settled_.size() < shards) settled_.resize(shards);
  wake_all(finished);

  // --- sharded-run machinery (unused on the serial path) ---
  // Shards are contiguous node ranges. Each shard's callbacks buffer their
  // sends in a row of S lanes, one per destination shard; after the
  // barrier, the merge for destination d drains column d in ascending
  // source-shard order. Contiguity makes that order the serial (sender id,
  // send order) enqueue order exactly, for any shard count — which is what
  // makes the sharded engine byte-identical to the serial one.
  std::vector<std::ptrdiff_t> shard_fin(shards, 0);
  std::vector<std::ptrdiff_t> shard_rdy(shards, 0);
  if (parallel) {
    plan_ = ShardPlan{n, shards};
    // Sized-once, recycled-forever, like the inbox slabs: a later run with
    // fewer shards leaves the extra lanes and buckets empty (lanes are
    // always reset after a merge, buckets cleared by the round swap).
    if (lanes_.size() < shards * shards) lanes_.resize(shards * shards);
    if (shard_enqueued_.size() < shards) shard_enqueued_.assign(shards, 0);
    if (dirty_next_.size() < shards) {
      dirty_next_.resize(shards);
      dirty_inbox_.resize(shards);
    }
    if (sliced_shards_ != shards) {
      shard_channels_.resize(shards);
      for (std::size_t s = 0; s < shards; ++s)
        shard_channels_[s].build_slice(graph_,
                                       static_cast<NodeId>(plan_.lo(s)),
                                       static_cast<NodeId>(plan_.hi(s)));
      sliced_shards_ = shards;
    }
  }
  // Refresh of one node from a worker: per-node flags are distinct memory
  // locations, counters are accumulated per shard and merged after the
  // barrier. No faults on this path, so is_down never applies.
  const auto refresh_local = [&](NodeId v, std::ptrdiff_t& dfin,
                                 std::ptrdiff_t& drdy) {
    const bool fin = set_->finished(v);
    const bool rdy = fin || set_->ready_for_phase_advance(v);
    if (fin != (finished[v] != 0)) {
      finished[v] = fin ? 1 : 0;
      dfin += fin ? 1 : -1;
    }
    if (rdy != (ready[v] != 0)) {
      ready[v] = rdy ? 1 : 0;
      drdy += rdy ? 1 : -1;
    }
  };
  // A shard visits the runnable nodes of its own range; the bitmap is
  // read-only until apply_settled() runs after the barrier.
  const auto round_shard = [&](std::size_t s, std::size_t round_no,
                               std::size_t phase_no) {
    SyncSendSlab* lanes = lanes_.data() + s * shards;
    std::ptrdiff_t dfin = 0;
    std::ptrdiff_t drdy = 0;
    for_each_set_bit(runnable_, plan_.lo(s), plan_.hi(s), [&](NodeId v) {
      SyncContext ctx(this, v, graph_.neighbors(v), round_no, phase_no);
      ctx.lanes_ = lanes;
      ctx.plan_ = plan_;
      ctx.shard_ = s;
      ctx.channels_ = &shard_channels_[s];
      set_->on_round(
          v, ctx, std::span<const Message>(inbox_[v].data(), inbox_count_[v]));
      refresh_local(v, dfin, drdy);
      settle(v, finished[v] != 0, ctx.wake_, round_no, settled_[s]);
    });
    shard_fin[s] = dfin;
    shard_rdy[s] = drdy;
  };
  const auto phase_shard = [&](std::size_t s, std::size_t new_phase) {
    std::ptrdiff_t dfin = 0;
    std::ptrdiff_t drdy = 0;
    const std::size_t hi = plan_.hi(s);
    for (std::size_t i = plan_.lo(s); i < hi; ++i) {
      const NodeId v = static_cast<NodeId>(i);
      set_->on_phase(v, new_phase);
      refresh_local(v, dfin, drdy);
    }
    shard_fin[s] = dfin;
    shard_rdy[s] = drdy;
  };
  const auto run_sharded = [&](auto&& body) {
    for (std::size_t s = 0; s < shards; ++s)
      pool_->submit([&body, s] { body(s); });
    pool_->wait_idle();
  };
  // Merge for destination shard d: drain column d of the lane matrix in
  // ascending source-shard order into the recycled next-round inboxes.
  // Runs one worker per destination shard — worker d only touches shard
  // d's boxes/counts, its own dirty bucket, and its own enqueued counter,
  // so the merges are disjoint by construction. Swap-moving out of a lane
  // slot circulates payload capacities between the lane and the inbox
  // slab — nothing is freed, the steady state stays allocation-free.
  const auto merge_column = [&](std::size_t d) {
    std::vector<NodeId>& dirty = dirty_next_[d];
    std::size_t count = 0;
    for (std::size_t s = 0; s < shards; ++s) {
      SyncSendSlab& lane = lanes_[s * shards + d];
      for (SyncBufferedSend& send : lane.entries()) {
        next_slot(send.to, 0, dirty) = std::move(send.message);
        ++count;
      }
      lane.reset();  // rewind, not freed: capacity is reused
    }
    shard_enqueued_[d] = count;
  };
  // Applies the buffered finished/ready deltas and message counts on the
  // driving thread, after a barrier.
  const auto apply_shard_deltas = [&] {
    for (std::size_t s = 0; s < shards; ++s) {
      finished_count = static_cast<std::size_t>(
          static_cast<std::ptrdiff_t>(finished_count) + shard_fin[s]);
      ready_count = static_cast<std::size_t>(
          static_cast<std::ptrdiff_t>(ready_count) + shard_rdy[s]);
      shard_fin[s] = 0;
      shard_rdy[s] = 0;
    }
  };

  while (metrics.rounds < max_rounds) {
    current_round_ = metrics.rounds;
    // Down-ness changes with the round counter, not inside callbacks, so
    // nodes crossing their crash round are refreshed here and leave the
    // runnable set (fault path only; the list is empty otherwise).
    for (; next_crash < crashes.size() &&
           crashes[next_crash].first <= current_round_;
         ++next_crash) {
      const NodeId v = crashes[next_crash].second;
      if (finished[v] == 0) refresh(v);
      clear_bit(runnable_, v);
      wake_[v] = 0;
    }
    if (finished_count == n) {
      metrics.completed = true;
      break;
    }

    // One audited "round" spans the phase barrier, the slab swap, and the
    // node callbacks — everything the dispatch of round r executes. A
    // completion break inside the barrier leaves the bracket unclosed,
    // which simply drops that partial round from the profile.
    if (alloc_audit_ != nullptr) alloc_audit_->begin_round();

    // Barrier: when nothing is in flight and everyone votes ready, advance
    // the phase counter instead of burning an idle round. on_phase cancels
    // every sleep.
    if (pending_messages_ == 0 && ready_count == n) {
      ++phase;
      ++metrics.phases;
      if (parallel) {
        run_sharded([&](std::size_t s) { phase_shard(s, phase); });
        apply_shard_deltas();  // on_phase cannot send; no lanes to merge
      } else {
        for (NodeId v = 0; v < n; ++v) {
          if (is_down(v)) continue;
          if (trace_ != nullptr) trace_->on_local_step(v);
          set_->on_phase(v, phase);
          refresh(v);
        }
      }
      wake_all(finished);
      if (finished_count == n) {
        metrics.completed = true;
        break;
      }
    }

    // Swap slabs: messages sent last round become this round's inboxes.
    // Only the counts of boxes that actually held messages are rewound
    // (dirty buckets); the consumed Message elements stay alive in the
    // slab, so vector and payload capacity survive — steady-state rounds
    // perform no allocator traffic.
    inbox_.swap(next_inbox_);
    inbox_count_.swap(next_count_);
    dirty_inbox_.swap(dirty_next_);
    for (std::vector<NodeId>& bucket : dirty_next_) {
      for (NodeId v : bucket) next_count_[v] = 0;
      bucket.clear();
    }
    pending_messages_ = 0;
    wake_runnable(metrics.rounds);

    if (parallel) {
      run_sharded(
          [&](std::size_t s) { round_shard(s, metrics.rounds, phase); });
      run_sharded(merge_column);
      apply_shard_deltas();
      for (std::size_t d = 0; d < shards; ++d) {
        pending_messages_ += shard_enqueued_[d];
        total_messages_ += shard_enqueued_[d];
        shard_enqueued_[d] = 0;
      }
    } else {
      for_each_set_bit(runnable_, 0, n, [&](NodeId v) {
        const std::span<const Message> inbox(inbox_[v].data(),
                                             inbox_count_[v]);
        if (is_down(v)) {
          // Mail queued for a dead node dies with it.
          faults_->stats().crash_drops += inbox.size();
          inbox_count_[v] = 0;
          settle(v, true, 0, metrics.rounds, settled_[0]);
          return;
        }
        FDLSP_ASSERT(finished[v] == 0 || !inbox.empty(),
                     "a finished node runs only on mail");
        if (trace_ != nullptr) {
          for (const Message& message : inbox)
            trace_->on_deliver(message.from, v);
          trace_->on_local_step(v);
        }
        SyncContext ctx(this, v, graph_.neighbors(v), metrics.rounds, phase);
        set_->on_round(v, ctx, inbox);
        refresh(v);
        settle(v, finished[v] != 0, ctx.wake_, metrics.rounds, settled_[0]);
      });
    }
    apply_settled();
    if (alloc_audit_ != nullptr) alloc_audit_->end_round();
    ++metrics.rounds;
  }

  metrics.messages = total_messages_;
  if (!metrics.completed) metrics.completed = finished_count == n;
  if (faults_ != nullptr) metrics.faults = faults_->stats();
  return metrics;
}

}  // namespace fdlsp
