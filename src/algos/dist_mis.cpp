#include "algos/dist_mis.h"

#include <algorithm>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "algos/learned_colors.h"
#include "coloring/conflict.h"
#include "graph/arcs.h"
#include "sim/async_engine.h"
#include "sim/reliable.h"
#include "sim/run_config.h"
#include "sim/shard.h"
#include "sim/sync_engine.h"
#include "sim/synchronizer.h"
#include "support/check.h"
#include "support/epoch_marks.h"
#include "support/flat_hash.h"
#include "support/rng.h"

namespace fdlsp {

namespace {

// Message tags of the DistMIS protocol.
constexpr std::int32_t kTagMisValue = 1;  // data: [value]
constexpr std::int32_t kTagMisJoin = 2;   // data: []
constexpr std::int32_t kTagCompValue = 3; // data: [origin, block, value, ttl]
constexpr std::int32_t kTagCompWin = 4;   // data: [origin, block, ttl,
                                          //        arc0, color0, arc1, ...]

enum class LubyState : std::uint8_t { kUndecided, kInSet, kDominated };

/// The whole DistMIS node population in structure-of-arrays form
/// (DESIGN.md §14). The hot per-node scalars live in parallel arrays indexed
/// by node id, so a shard's round walks dense memory. Learned colors live in
/// one LearnedColors store (algos/learned_colors.h) built before round 0: an
/// exactly sized region per node, keyed by the arcs that node can ever read.
/// Greedy scratch, relay buffers and assignments are kept *per shard*,
/// indexed by ctx.shard(): one thread drives one shard, so shard scratch
/// needs no synchronization.
class DistMisSet final : public SyncProgramSet {
 public:
  DistMisSet(const Graph& graph, DistMisVariant variant, std::uint64_t seed)
      : view_(graph),
        variant_(variant),
        flood_radius_(variant == DistMisVariant::kGbg ? 3 : 2),
        max_degree_(graph.max_degree()),
        colors_(view_, variant) {
    const std::size_t n = graph.num_nodes();
    // Per-node streams drawn from one seeded sequence, in node order — the
    // same seeding the per-node-program layout used, so serial results are
    // unchanged by the SoA refactor.
    Rng seeder(seed);
    rng_.reserve(n);
    for (std::size_t v = 0; v < n; ++v) rng_.emplace_back(seeder());
    retired_.assign(n, 0);
    in_luby_phase_.assign(n, 1);
    rounds_in_phase_.assign(n, 0);
    luby_state_.assign(n, LubyState::kUndecided);
    luby_value_.assign(n, 0);
    own_block_.assign(n, 0);
    comp_value_.assign(n, 0);
    rivals_.resize(n);
    seen_.resize(n);
    // Arcs each node colors on a win, as a CSR (kGbg: all incident arcs,
    // out then in; kGeneral: outgoing only) — fixed at construction so the
    // one win() a node ever performs stays allocation-free.
    arc_offsets_.assign(n + 1, 0);
    for (NodeId v = 0; v < n; ++v) {
      const std::size_t degree = graph.degree(v);
      arc_offsets_[v + 1] =
          arc_offsets_[v] +
          (variant_ == DistMisVariant::kGbg ? 2 * degree : degree);
      if (degree == 0) retired_[v] = 1;
    }
    arcs_.resize(arc_offsets_[n]);
    for (NodeId v = 0; v < n; ++v) {
      std::size_t pos = arc_offsets_[v];
      for (const NeighborEntry& entry : graph.neighbors(v))
        arcs_[pos++] = view_.arc_from(entry.edge, v);
      if (variant_ == DistMisVariant::kGbg) {
        for (const NeighborEntry& entry : graph.neighbors(v))
          arcs_[pos++] = ArcView::reverse(view_.arc_from(entry.edge, v));
      }
    }
  }

  /// Sizes per-shard scratch. A set prepared once must not be re-sharded:
  /// each shard's wins are collected from that shard's assignment list, and
  /// a new partition would orphan them — the engine calls this with the
  /// same count it runs with, and every run of one set uses one engine
  /// configuration.
  void prepare_shards(std::size_t shards) override {
    FDLSP_REQUIRE(shards > 0, "shard count must be positive");
    if (shards == prepared_) return;
    FDLSP_REQUIRE(prepared_ == 0,
                  "DistMIS state cannot be re-sharded once prepared");
    prepared_ = shards;
    shards_.resize(shards);
    const ShardPlan plan{size(), shards};
    for (std::size_t s = 0; s < shards; ++s) {
      ShardScratch& scratch = shards_[s];
      scratch.assignments.reserve(arc_offsets_[plan.hi(s)] -
                                  arc_offsets_[plan.lo(s)]);
      scratch.round_values.reserve(max_degree_);
      // The largest flood relayed or emitted is a win flood from a
      // degree-Δ origin: 3 header words + 2 per incident arc (≤ 2Δ arcs).
      scratch.relay_scratch.data.reserve(3 + 4 * max_degree_);
      scratch.win_scratch.data.reserve(3 + 4 * max_degree_);
    }
  }

  std::size_t size() const override { return retired_.size(); }

  bool finished(NodeId v) const override { return retired_[v] != 0; }

  bool ready_for_phase_advance(NodeId v) const override {
    if (retired_[v] != 0) return true;
    if (in_luby_phase_[v] != 0) return luby_state_[v] != LubyState::kUndecided;
    // Compete phase: S members must finish; everyone else just relays.
    return luby_state_[v] != LubyState::kInSet;
  }

  void on_phase(NodeId v, std::size_t new_phase) override {
    rounds_in_phase_[v] = 0;
    in_luby_phase_[v] = (new_phase % 2 == 0) ? 1 : 0;
    if (retired_[v] != 0) return;
    if (in_luby_phase_[v] != 0) {
      luby_state_[v] = LubyState::kUndecided;
    }
    rivals_[v].clear();
    // Flood dedup keys are dead across the barrier: the (origin, block)
    // pair of a flood is unique to one compete phase (a node competes in at
    // most one phase — it retires when it wins, and the phase only advances
    // once every member has), and the barrier requires zero messages in
    // flight. Dropping them caps seen_ at its single-phase high-water mark
    // (clear() keeps the table storage), so the monotone key stream cannot
    // force table doublings arbitrarily late into the run.
    seen_[v].clear();
  }

  // fdlsp-lint: hot — per-round steady-state path, no allocator traffic
  void on_round(NodeId v, SyncContext& ctx,
                std::span<const Message> inbox) override {
    ShardScratch& scratch = shards_[ctx.shard()];
    scratch.round_values.clear();
    for (const Message& message : inbox) process(v, scratch, ctx, message);
    if (retired_[v] == 0) {
      if (in_luby_phase_[v] != 0) {
        luby_step(v, scratch, ctx);
      } else if (luby_state_[v] == LubyState::kInSet) {
        compete_step(v, scratch, ctx);
      }
    }
    ++rounds_in_phase_[v];
  }

  /// Shard count prepare_shards() was called with (0 before any run).
  std::size_t prepared_shards() const noexcept { return prepared_; }

  /// Arc colors assigned by the nodes of shard s (collected by the driver).
  const std::vector<std::pair<ArcId, Color>>& assignments(
      std::size_t s) const {
    return shards_[s].assignments;
  }

  std::size_t num_arcs() const noexcept { return view_.num_arcs(); }

 private:
  /// Scratch owned by one shard: exactly one thread executes a shard's
  /// callbacks, so nothing here needs synchronization, and the serial
  /// engine reports shard 0 for everyone.
  struct ShardScratch {
    std::vector<std::pair<ArcId, Color>> assignments;  // by this shard's wins
    // Same-round scratch (cleared at every on_round entry).
    std::vector<std::pair<std::int64_t, std::int64_t>> round_values;
    EpochMarks used_colors;  // scratch of smallest_known_feasible
    Message relay_scratch;   // recycled flood-relay buffer (see forward)
    Message win_scratch;     // recycled win-flood buffer (see win)
  };

  /// True when `message` has the payload its tag's layout needs and every
  /// field is in range: origin < n, 0 < ttl <= flood radius, and arcs and
  /// colors below the arc count (the greedy never needs more colors than
  /// arcs). Only an unhardened run under a corrupting fault plan ever sees
  /// anything else; the reliable wrapper discards corrupted frames first.
  bool well_formed(const Message& message) const {
    const SmallPayload& data = message.data;
    const auto below = [](std::int64_t value, std::size_t bound) {
      return value >= 0 && static_cast<std::uint64_t>(value) < bound;
    };
    const auto flood_ok = [&](std::int64_t origin, std::int64_t ttl) {
      return below(origin, size()) && ttl > 0 &&
             static_cast<std::uint64_t>(ttl) <= flood_radius_;
    };
    switch (message.tag) {
      case kTagMisValue:
        return data.size() == 1;
      case kTagMisJoin:
        return data.empty();
      case kTagCompValue:
        return data.size() == 4 && flood_ok(data[0], data[3]);
      case kTagCompWin:
        if (data.size() < 3 || (data.size() - 3) % 2 != 0 ||
            !flood_ok(data[0], data[2]))
          return false;
        for (std::size_t i = 3; i < data.size(); ++i)
          if (!below(data[i], view_.num_arcs())) return false;
        return true;
      default:
        return false;
    }
  }

  // fdlsp-lint: hot — per-message steady-state path, no allocator traffic
  void process(NodeId v, ShardScratch& scratch, SyncContext& ctx,
               const Message& message) {
    // A malformed message is lost: corruption turns into a drop.
    if (!well_formed(message)) return;
    switch (message.tag) {
      case kTagMisValue:
        scratch.round_values.push_back(
            {message.data[0], static_cast<std::int64_t>(message.from)});
        break;
      case kTagMisJoin:
        if (luby_state_[v] == LubyState::kUndecided)
          luby_state_[v] = LubyState::kDominated;
        break;
      case kTagCompValue: {
        const auto origin = static_cast<NodeId>(message.data[0]);
        const auto block = static_cast<std::uint64_t>(message.data[1]);
        if (!mark_seen(v, message.tag, origin, block)) break;
        if (retired_[v] == 0 && luby_state_[v] == LubyState::kInSet &&
            block == own_block_[v] && origin != v) {
          rivals_[v].push_back(
              {message.data[2], static_cast<std::int64_t>(origin)});
        }
        forward(scratch, ctx, message);
        break;
      }
      case kTagCompWin: {
        const auto origin = static_cast<NodeId>(message.data[0]);
        const auto block = static_cast<std::uint64_t>(message.data[1]);
        if (!mark_seen(v, message.tag, origin, block)) break;
        for (std::size_t i = 3; i + 1 < message.data.size(); i += 2) {
          colors_.learn(v, static_cast<ArcId>(message.data[i]),
                        static_cast<Color>(message.data[i + 1]));
        }
        forward(scratch, ctx, message);
        break;
      }
    }
  }

  /// Relays a flooded message with a decremented TTL. The relay goes
  /// through a shard scratch and the copying broadcast overload, so a
  /// warmed shard relays even spilled win floods with zero allocations.
  // fdlsp-lint: hot — per-message steady-state path, no allocator traffic
  void forward(ShardScratch& scratch, SyncContext& ctx,
               const Message& message) {
    // kCompValue layout: [origin, block, value, ttl];
    // kCompWin layout:   [origin, block, ttl, ...].
    const std::size_t ttl_index = message.tag == kTagCompValue ? 3 : 2;
    if (message.data[ttl_index] <= 1) return;
    Message& relay = scratch.relay_scratch;
    relay = message;  // copy-assign: scratch capacity is reused
    relay.data[ttl_index] = message.data[ttl_index] - 1;
    ctx.broadcast(relay);
  }

  /// Competition priority: degree-major, random-minor. High-degree nodes
  /// win early and color first — the same heuristic the DFS algorithm's
  /// max-degree token rule uses, and the reason both match the paper's
  /// slot counts (a random priority costs ~10-15% more slots).
  std::int64_t draw_priority(NodeId v) {
    const auto degree = static_cast<std::uint64_t>(view_.graph().degree(v));
    return static_cast<std::int64_t>((degree << 40) | (rng_[v]() >> 25));
  }

  /// One round of Luby's MIS: even offsets broadcast values, odd offsets
  /// decide on local maxima.
  void luby_step(NodeId v, ShardScratch& scratch, SyncContext& ctx) {
    if (luby_state_[v] != LubyState::kUndecided) return;
    if (rounds_in_phase_[v] % 2 == 0) {
      luby_value_[v] = draw_priority(v);
      Message message;
      message.tag = kTagMisValue;
      message.data = {luby_value_[v]};
      // Lvalue broadcast = the engine's copying path: payloads land in
      // recycled inbox slots without evicting their spilled capacity.
      ctx.broadcast(message);
    } else {
      const std::pair<std::int64_t, std::int64_t> mine{
          luby_value_[v], static_cast<std::int64_t>(v)};
      const bool is_max = std::all_of(
          scratch.round_values.begin(), scratch.round_values.end(),
          [&](const auto& other) { return mine > other; });
      if (is_max) {
        luby_state_[v] = LubyState::kInSet;
        Message message;
        message.tag = kTagMisJoin;
        ctx.broadcast(message);
      }
    }
  }

  /// One round of the competition phase (block length 2D+1).
  void compete_step(NodeId v, ShardScratch& scratch, SyncContext& ctx) {
    const std::size_t block_length = 2 * flood_radius_ + 1;
    const std::size_t offset = rounds_in_phase_[v] % block_length;
    if (offset == 0) {
      own_block_[v] = rounds_in_phase_[v] / block_length;
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
      if (is_max) win(v, scratch, ctx);
    }
  }

  /// Joins S': greedily colors this node's arcs with distance-2 knowledge,
  /// retires, and floods the assignment.
  void win(NodeId v, ShardScratch& scratch, SyncContext& ctx) {
    Message& message = scratch.win_scratch;  // pre-sized by prepare_shards
    message.tag = kTagCompWin;
    message.data.clear();
    message.data.push_back(static_cast<std::int64_t>(v));
    message.data.push_back(static_cast<std::int64_t>(own_block_[v]));
    message.data.push_back(static_cast<std::int64_t>(flood_radius_));
    const std::size_t arcs_end = arc_offsets_[v + 1];
    for (std::size_t i = arc_offsets_[v]; i < arcs_end; ++i) {
      const ArcId a = arcs_[i];
      if (colors_.color(v, a) != kNoColor) continue;  // colored by a neighbor
      const Color c = smallest_known_feasible(v, scratch, a);
      colors_.learn(v, a, c);
      scratch.assignments.emplace_back(a, c);
      message.data.push_back(static_cast<std::int64_t>(a));
      message.data.push_back(static_cast<std::int64_t>(c));
    }
    mark_seen(v, kTagCompWin, v, own_block_[v]);
    ctx.broadcast(message);
    retired_[v] = 1;
    colors_.retire(v);  // a retired node reads no color again
  }

  /// Smallest color not used by any known-colored conflicting arc. The
  /// conflict enumeration stays on the fly (see coloring/conflict_index.h on
  /// why node programs do not prebuild); the used-set is an epoch-stamped
  /// sweep instead of a per-call vector + sort + unique.
  Color smallest_known_feasible(NodeId v, ShardScratch& scratch, ArcId a) {
    scratch.used_colors.begin();
    for_each_conflicting_arc(view_, a, [&](ArcId b) {
      const Color color = colors_.color(v, b);
      if (color != kNoColor)
        scratch.used_colors.mark(static_cast<std::size_t>(color));
    });
    return static_cast<Color>(scratch.used_colors.first_unmarked());
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

  const ArcView view_;
  DistMisVariant variant_;
  std::size_t flood_radius_;
  std::size_t max_degree_;
  std::size_t prepared_ = 0;  // shard count scratch is sized for
  LearnedColors colors_;      // every node's readable learned colors

  // --- per-node state, parallel arrays indexed by node id ---
  std::vector<Rng> rng_;
  std::vector<char> retired_;
  std::vector<char> in_luby_phase_;
  std::vector<std::size_t> rounds_in_phase_;
  std::vector<LubyState> luby_state_;
  std::vector<std::int64_t> luby_value_;
  std::vector<std::uint64_t> own_block_;
  std::vector<std::int64_t> comp_value_;
  // Rival lists persist across the rounds of one compete block and dedup
  // sets across one phase, so both stay per node (cleared, never freed).
  std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> rivals_;
  std::vector<FlatHashSet<std::uint64_t>> seen_;
  // CSR of the arcs each node colors on a win (fixed at construction).
  std::vector<std::size_t> arc_offsets_;
  std::vector<ArcId> arcs_;

  std::vector<ShardScratch> shards_;  // indexed by ctx.shard()
};

// Round budget of both runners, and event budget of the asynchronous
// engine: frames, acks, retransmits and poll timers all count there, so it
// is much larger than the round budget.
constexpr std::size_t kMaxRounds = 1'000'000;
constexpr std::size_t kMaxAsyncEvents = 200'000'000;

}  // namespace

ScheduleResult run_dist_mis(const Graph& graph, const DistMisOptions& options,
                            const SyncSetDriver& drive) {
  DistMisSet set(graph, options.variant, options.seed);
  const SyncSetRun driven = drive(graph, set, options, kMaxRounds);
  const SyncMetrics& metrics = driven.metrics;
  // Crashed nodes cannot color their arcs, and lossy channels without the
  // reliable wrapper void the algorithm's knowledge guarantees — such runs
  // report what happened instead of aborting, and the fault oracles judge
  // the outcome.
  const bool relaxed = options.relaxes_guarantees();
  if (!relaxed)
    FDLSP_REQUIRE(metrics.completed,
                  "DistMIS did not complete in round budget");

  ScheduleResult result;
  result.completed = metrics.completed;
  result.faults = metrics.faults;
  result.coloring = ArcColoring(set.num_arcs());
  for (std::size_t s = 0; s < set.prepared_shards(); ++s) {
    for (const auto& [arc, color] : set.assignments(s)) {
      if (!relaxed)
        FDLSP_REQUIRE(!result.coloring.is_colored(arc),
                      "arc colored by two nodes");
      result.coloring.set(arc, color);
    }
  }
  if (!relaxed)
    FDLSP_REQUIRE(result.coloring.complete(), "DistMIS left arcs uncolored");
  result.num_slots = result.coloring.num_colors_used();
  result.rounds = metrics.rounds;
  result.messages = metrics.messages;
  result.transport = driven.transport;
  result.suspected = driven.suspected;
  return result;
}

ScheduleResult run_dist_mis_async(const Graph& graph,
                                  const AsyncDistMisOptions& options) {
  DistMisSet set(graph, options.variant, options.seed);
  // External contexts always report shard 0: the asynchronous engine
  // dispatches every node callback from one event wheel.
  set.prepare_shards(1);
  RoundSynchronizer coordinator(set, kMaxRounds);
  const FaultSpec spec = options.fault_spec();
  std::vector<std::unique_ptr<AsyncProgram>> programs;
  programs.reserve(graph.num_nodes());
  for (NodeId v = 0; v < graph.num_nodes(); ++v)
    programs.push_back(
        std::make_unique<SyncOverAsyncProgram>(graph, set, v, coordinator));
  if (options.reliable) wrap_reliable(programs, spec);
  AsyncEngine engine(
      graph, std::move(programs),
      make_delay_schedule(options.delay_model, options.delay_seed));
  const RunAttachment attached(engine, graph, options);
  const AsyncMetrics async_metrics = engine.run(kMaxAsyncEvents);
  if (options.engine_metrics != nullptr)
    *options.engine_metrics = async_metrics;
  const SyncMetrics metrics = coordinator.metrics();

  // Message faults without the reliable wrapper lose frames and stall the
  // lockstep — such runs report what happened instead of aborting.
  const bool relaxed = attached.faulted() && !options.reliable;
  if (!relaxed) {
    FDLSP_REQUIRE(async_metrics.completed && metrics.completed,
                  "async DistMIS did not complete in budget");
    FDLSP_REQUIRE(async_metrics.fifo_ok, "async engine violated channel FIFO");
  }

  ScheduleResult result;
  result.completed = async_metrics.completed && metrics.completed;
  result.faults = async_metrics.faults;
  result.coloring = ArcColoring(set.num_arcs());
  for (const auto& [arc, color] : set.assignments(0)) {
    if (!relaxed)
      FDLSP_REQUIRE(!result.coloring.is_colored(arc),
                    "arc colored by two nodes");
    result.coloring.set(arc, color);
  }
  if (!relaxed)
    FDLSP_REQUIRE(result.coloring.complete(), "DistMIS left arcs uncolored");
  result.num_slots = result.coloring.num_colors_used();
  result.rounds = metrics.rounds;
  result.messages = metrics.messages;
  result.async_time = async_metrics.completion_time;
  result.stall_diagnosis = async_metrics.stall_diagnosis;
  if (options.reliable)
    collect_transport(engine, graph.num_nodes(), result.transport,
                      &result.suspected);
  return result;
}

}  // namespace fdlsp
