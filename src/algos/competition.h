// The distance-D competition block of DistMIS (Algorithm 1), shared by
// DistMIS's compete phase and the phase 1 of distributed repair.
//
// A block lasts 2D+1 rounds. At offset 0 every competing node floods a
// priority to distance D; at offset D a node that heard no larger rival
// wins: it greedily colors its still-uncolored arcs against what it has
// learned, floods the assignment to distance D and retires. Winners of one
// block are more than D hops apart; losers compete again in the next. The
// DistMIS variant sets D and the arcs a winner colors: kGbg D = 3, all
// incident arcs; kGeneral D = 2, out-arcs (also the repair's block).
//
// Competition keeps the node population's state in parallel arrays indexed
// by node id (DESIGN.md §14), the learned colors (algos/learned_colors.h)
// and per-shard scratch indexed by ctx.shard(). Its owner, a
// SyncProgramSet, keeps the phases: it hands process() every message it
// does not handle itself, calls step() each round for each competing node
// and on_phase() at each barrier. Owners may flood their own state through
// relay() and mark_seen(): every flood opens with [origin, block, ttl],
// except CompValue, which carries its value before the ttl.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "algos/dist_mis.h"
#include "algos/learned_colors.h"
#include "graph/arcs.h"
#include "sim/message.h"
#include "sim/sync_engine.h"
#include "support/epoch_marks.h"
#include "support/flat_hash.h"
#include "support/rng.h"

namespace fdlsp {

// Flood tags. An owner's flood tags must differ from these, and from each
// other, modulo 4: the dedup key keeps two tag bits.
inline constexpr std::int32_t kTagCompValue = 3;  // [origin, block, value, ttl]
inline constexpr std::int32_t kTagCompWin = 4;    // [origin, block, ttl, arc,
                                                  //  color, arc, color, ...]

// fdlsp-lint: program — per-node protocol state, reached only from the
// callbacks of the SyncProgramSet that owns it
class Competition {
 public:
  /// State for every node: random streams drawn in node order from one
  /// sequence seeded with `seed`, and an uncolored store for `variant`
  /// with regions for `holders` (every node when empty; see
  /// LearnedColors). The greedy's colors stay below the arc count; an
  /// owner that floods colors from outside the run (repair's stale ones)
  /// passes their span.
  Competition(const ArcView& view, DistMisVariant variant,
              std::uint64_t seed, std::size_t color_span = 0,
              std::span<const char> holders = {});

  /// Sizes per-shard scratch. It refuses a second shard count: a new
  /// partition would orphan the wins in each shard's assignment list.
  void prepare_shards(std::size_t shards);

  /// Shard count prepare_shards() was called with (0 before any run).
  std::size_t prepared_shards() const noexcept { return shards_.size(); }

  /// Arc colors assigned by the winners of shard s.
  const std::vector<std::pair<ArcId, Color>>& assignments(
      std::size_t s) const {
    return shards_[s].assignments;
  }

  /// The learned colors of every node.
  LearnedColors& colors() noexcept { return colors_; }
  const LearnedColors& colors() const noexcept { return colors_; }

  /// Competition priority: degree-major, random-minor. High-degree nodes
  /// win early and color first — the same heuristic the DFS algorithm's
  /// max-degree token rule uses, and the reason both match the paper's
  /// slot counts (a random priority costs ~10-15% more slots).
  std::int64_t draw_priority(NodeId v) {
    const auto degree = static_cast<std::uint64_t>(view_.graph().degree(v));
    return static_cast<std::int64_t>((degree << 40) | (rng_[v]() >> 25));
  }

  /// True when `data` is a flood of this radius: [origin, block, ttl] with
  /// origin < n and 0 < ttl <= D, then whole items of `stride` words: an
  /// arc below the arc count, then (stride 2) a color below the color
  /// bound. Only unhardened runs under a corrupting plan see anything else.
  bool well_formed_flood(const SmallPayload& data, std::size_t stride) const {
    if (data.size() < 3 || (data.size() - 3) % stride != 0 ||
        !flood_ok(data[0], data[2]))
      return false;
    for (std::size_t i = 3; i < data.size(); i += stride)
      if (!below(data[i], view_.num_arcs()) ||
          (stride == 2 && !below(data[i + 1], color_bound_)))
        return false;
    return true;
  }

  /// Handles a CompValue or CompWin message at node v: the first copy of a
  /// flood records a rival (when v is `competing` in the same block) or
  /// learns the winner's colors, and is relayed. Every other message, and
  /// every malformed one, is dropped: corruption turns into a loss.
  // fdlsp-lint: hot — per-message steady-state path, no allocator traffic
  void process(NodeId v, SyncContext& ctx, const Message& message,
               bool competing) {
    if (!well_formed(message)) return;
    const auto origin = static_cast<NodeId>(message.data[0]);
    const auto block = static_cast<std::uint64_t>(message.data[1]);
    if (!mark_seen(v, message.tag, origin, block)) return;
    if (message.tag == kTagCompValue) {
      if (competing && block == own_block_[v] && origin != v)
        rivals_[v].push_back(
            {message.data[2], static_cast<std::int64_t>(origin)});
    } else {
      for (std::size_t i = 3; i + 1 < message.data.size(); i += 2)
        colors_.learn(v, static_cast<ArcId>(message.data[i]),
                      static_cast<Color>(message.data[i + 1]));
    }
    relay(ctx, message);
  }

  /// Relays a flooded message with a decremented TTL. The relay goes
  /// through a shard scratch and the copying broadcast overload, so a
  /// warmed shard relays even spilled win floods with zero allocations.
  // fdlsp-lint: hot — per-message steady-state path, no allocator traffic
  void relay(SyncContext& ctx, const Message& message) {
    const std::size_t ttl_index = message.tag == kTagCompValue ? 3 : 2;
    if (message.data[ttl_index] <= 1) return;
    Message& copy = shards_[ctx.shard()].relay_scratch;
    copy = message;  // copy-assign: scratch capacity is reused
    copy.data[ttl_index] = message.data[ttl_index] - 1;
    ctx.broadcast(copy);
  }

  /// Returns true the first time node v sees a (tag, origin, block) flood.
  // fdlsp-lint: hot — per-message steady-state path, no allocator traffic
  bool mark_seen(NodeId v, std::int32_t tag, NodeId origin,
                 std::uint64_t block) {
    const std::uint64_t key = (static_cast<std::uint64_t>(origin) << 34) |
                              (block << 2) |
                              static_cast<std::uint64_t>(tag & 3);
    return seen_[v].insert(key);
  }

  /// One round of competing node v, `round` rounds into its phase: opens a
  /// block at offset 0 and decides at offset D. Returns true when v won;
  /// it has then colored its arcs, flooded them and retired.
  bool step(NodeId v, SyncContext& ctx, std::size_t round) {
    const std::size_t offset = round % block_length_;
    if (offset == 0) {
      own_block_[v] = round / block_length_;
      comp_value_[v] = draw_priority(v);
      rivals_[v].clear();
      Message message;
      message.tag = kTagCompValue;
      message.data = {static_cast<std::int64_t>(v),
                      static_cast<std::int64_t>(own_block_[v]), comp_value_[v],
                      static_cast<std::int64_t>(flood_radius_)};
      mark_seen(v, kTagCompValue, v, own_block_[v]);
      ctx.broadcast(message);
    } else if (offset == flood_radius_) {
      const std::pair<std::int64_t, std::int64_t> mine{
          comp_value_[v], static_cast<std::int64_t>(v)};
      const bool is_max =
          std::all_of(rivals_[v].begin(), rivals_[v].end(),
                      [&](const auto& other) { return mine > other; });
      if (is_max) win(v, ctx);
      return is_max;
    }
    return false;
  }

  /// The phase barrier passed: v's rivals and flood dedup keys are dead.
  /// The (origin, block) pair of a flood is unique to one phase and the
  /// barrier requires zero messages in flight; clearing caps each dedup
  /// set at its single-phase high-water mark (clear() keeps the storage).
  void on_phase(NodeId v) {
    rivals_[v].clear();
    seen_[v].clear();
  }

 private:
  /// Scratch owned by one shard: exactly one thread executes a shard's
  /// callbacks, so nothing here needs synchronization, and the serial
  /// engine reports shard 0 for everyone.
  struct ShardScratch {
    std::vector<std::pair<ArcId, Color>> assignments;  // by this shard's wins
    EpochMarks used_colors;  // scratch of smallest_known_feasible
    Message relay_scratch;   // recycled flood-relay buffer (see relay)
    Message win_scratch;     // recycled win-flood buffer (see win)
  };

  static bool below(std::int64_t value, std::size_t bound) {
    return value >= 0 && static_cast<std::uint64_t>(value) < bound;
  }

  bool flood_ok(std::int64_t origin, std::int64_t ttl) const {
    return below(origin, view_.graph().num_nodes()) && ttl > 0 &&
           static_cast<std::uint64_t>(ttl) <= flood_radius_;
  }

  bool well_formed(const Message& message) const {
    switch (message.tag) {
      case kTagCompValue:
        return message.data.size() == 4 &&
               flood_ok(message.data[0], message.data[3]);
      case kTagCompWin:
        return well_formed_flood(message.data, 2);
      default:
        return false;
    }
  }

  void win(NodeId v, SyncContext& ctx);

  const ArcView view_;
  std::size_t flood_radius_;
  std::size_t block_length_;
  std::size_t color_bound_;  // flooded colors are below it
  bool colors_incident_;     // kGbg: a winner colors its in-arcs too
  LearnedColors colors_;

  // --- per-node state, parallel arrays indexed by node id ---
  std::vector<Rng> rng_;
  std::vector<std::uint64_t> own_block_;
  std::vector<std::int64_t> comp_value_;
  // Rival lists persist across the rounds of one block and dedup sets
  // across one phase, so both stay per node (cleared, never freed).
  std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> rivals_;
  std::vector<FlatHashSet<std::uint64_t>> seen_;

  std::vector<ShardScratch> shards_;  // indexed by ctx.shard()
};

}  // namespace fdlsp
