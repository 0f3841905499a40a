#include "algos/dist_repair.h"

#include <algorithm>
#include <memory>
#include <utility>
#include <vector>

#include "coloring/conflict.h"
#include "graph/arcs.h"
#include "sim/reliable.h"
#include "sim/run_config.h"
#include "sim/sync_engine.h"
#include "support/check.h"
#include "support/flat_hash.h"
#include "support/rng.h"

namespace fdlsp {

namespace {

constexpr std::int32_t kTagState = 1;   // data: [ttl, origin, arc, color, ...]
constexpr std::int32_t kTagClear = 2;   // data: [ttl, origin, arc, ...]
constexpr std::int32_t kTagCompValue = 3;  // data: [origin, block, value, ttl]
constexpr std::int32_t kTagCompWin = 4;    // data: [origin, block, ttl, arc,
                                           //        color, ...]

constexpr std::size_t kFloodRadius = 2;
constexpr std::size_t kBlockLength = 2 * kFloodRadius + 1;
constexpr std::size_t kMaxRounds = 1'000'000;

class DistRepairProgram final : public SyncProgram {
 public:
  DistRepairProgram(const ArcView& view, NodeId self,
                    const ArcColoring& stale, std::uint64_t seed)
      : view_(&view), self_(self), rng_(seed) {
    for (ArcId a : view.out_arcs(self)) {
      out_arcs_.push_back(a);
      if (stale.is_colored(a)) known_colors_[a] = stale.color(a);
    }
    if (out_arcs_.empty()) {
      exchanged_ = true;
      repaired_ = true;
    }
  }

  bool finished() const override { return repaired_; }

  bool ready_for_phase_advance() const override {
    return in_exchange_phase_ ? exchanged_ : repaired_;
  }

  void on_phase(std::size_t new_phase) override {
    rounds_in_phase_ = 0;
    in_exchange_phase_ = (new_phase == 0);
    if (new_phase == 1 && !repaired_ && dirty_arcs().empty())
      repaired_ = true;  // stale colors survived intact; nothing to do
  }

  void on_round(SyncContext& ctx, std::span<const Message> inbox) override {
    for (const Message& message : inbox) process(ctx, message);
    if (in_exchange_phase_) {
      exchange_step(ctx);
    } else if (!repaired_) {
      compete_step(ctx);
    }
    ++rounds_in_phase_;
  }

  const std::vector<std::pair<ArcId, Color>>& assignments() const {
    return assignments_;
  }

  /// Colors this node still vouches for after repair (kept + newly set).
  /// A faulted run can leave an arc cleared and never re-won; it is simply
  /// absent here, and the caller's completeness checks judge the outcome.
  std::vector<std::pair<ArcId, Color>> surviving_colors() const {
    std::vector<std::pair<ArcId, Color>> result;
    for (ArcId a : out_arcs_) {
      const Color* color = known_colors_.find(a);
      if (color == nullptr) continue;
      result.emplace_back(a, *color);
    }
    return result;
  }

 private:
  void process(SyncContext& ctx, const Message& message) {
    switch (message.tag) {
      case kTagState: {
        if (!mark_seen(message.tag, static_cast<NodeId>(message.data[1]), 0))
          break;
        for (std::size_t i = 2; i + 1 < message.data.size(); i += 2) {
          const auto arc = static_cast<ArcId>(message.data[i]);
          const auto color = static_cast<Color>(message.data[i + 1]);
          snapshot_[arc] = color;
          known_colors_[arc] = color;  // surviving stale colors bind us too
        }
        forward_ttl0(ctx, message);
        break;
      }
      case kTagClear: {
        if (!mark_seen(message.tag, static_cast<NodeId>(message.data[1]), 0))
          break;
        for (std::size_t i = 2; i < message.data.size(); ++i)
          known_colors_.erase(static_cast<ArcId>(message.data[i]));
        forward_ttl0(ctx, message);
        break;
      }
      case kTagCompValue: {
        const auto origin = static_cast<NodeId>(message.data[0]);
        const auto block = static_cast<std::uint64_t>(message.data[1]);
        if (!mark_seen(message.tag, origin, block + 1)) break;
        if (!repaired_ && !in_exchange_phase_ && block == own_block_ &&
            origin != self_) {
          rivals_.push_back(
              {message.data[2], static_cast<std::int64_t>(origin)});
        }
        forward_indexed(ctx, message, 3);
        break;
      }
      case kTagCompWin: {
        const auto origin = static_cast<NodeId>(message.data[0]);
        const auto block = static_cast<std::uint64_t>(message.data[1]);
        if (!mark_seen(message.tag, origin, block + 1)) break;
        for (std::size_t i = 3; i + 1 < message.data.size(); i += 2)
          known_colors_[static_cast<ArcId>(message.data[i])] =
              static_cast<Color>(message.data[i + 1]);
        forward_indexed(ctx, message, 2);
        break;
      }
      default:
        FDLSP_REQUIRE(false, "unknown message tag");
    }
  }

  /// Forwards a message whose TTL sits at data[0].
  void forward_ttl0(SyncContext& ctx, const Message& message) {
    if (message.data[0] <= 1) return;
    Message copy = message;
    --copy.data[0];
    ctx.broadcast(std::move(copy));
  }

  /// Forwards a message whose TTL sits at data[index].
  void forward_indexed(SyncContext& ctx, const Message& message,
                       std::size_t index) {
    if (message.data[index] <= 1) return;
    Message copy = message;
    --copy.data[index];
    ctx.broadcast(std::move(copy));
  }

  /// Phase 0 schedule: r0 flood own state; r2 clear losers + flood clears;
  /// r4 done (clears applied on receipt).
  void exchange_step(SyncContext& ctx) {
    if (rounds_in_phase_ == 0 && !out_arcs_.empty()) {
      Message state;
      state.tag = kTagState;
      state.data.push_back(static_cast<std::int64_t>(kFloodRadius));
      state.data.push_back(static_cast<std::int64_t>(self_));
      for (ArcId a : out_arcs_) {
        const Color* color = known_colors_.find(a);
        if (color == nullptr) continue;
        state.data.push_back(static_cast<std::int64_t>(a));
        state.data.push_back(*color);
        snapshot_[a] = *color;
      }
      mark_seen(kTagState, self_, 0);
      if (state.data.size() > 2) ctx.broadcast(std::move(state));
    } else if (rounds_in_phase_ == 2) {
      clear_losers(ctx);
    } else if (rounds_in_phase_ >= 4) {
      exchanged_ = true;
    }
  }

  /// The deterministic clearing rule: a colored out-arc loses if the
  /// initial snapshot holds an equally-colored conflicting arc of smaller
  /// id. Every node applies the same rule to the same snapshot.
  void clear_losers(SyncContext& ctx) {
    Message clear;
    clear.tag = kTagClear;
    clear.data.push_back(static_cast<std::int64_t>(kFloodRadius));
    clear.data.push_back(static_cast<std::int64_t>(self_));
    for (ArcId a : out_arcs_) {
      const Color* my_color = snapshot_.find(a);
      if (my_color == nullptr) continue;
      bool lost = false;
      for_each_conflicting_arc(*view_, a, [&](ArcId b) {
        if (lost || b >= a) return;
        const Color* other = snapshot_.find(b);
        lost = other != nullptr && *other == *my_color;
      });
      if (lost) {
        known_colors_.erase(a);
        clear.data.push_back(static_cast<std::int64_t>(a));
      }
    }
    mark_seen(kTagClear, self_, 0);
    if (clear.data.size() > 2) ctx.broadcast(std::move(clear));
  }

  std::vector<ArcId> dirty_arcs() const {
    std::vector<ArcId> dirty;
    for (ArcId a : out_arcs_)
      if (!known_colors_.contains(a)) dirty.push_back(a);
    return dirty;
  }

  /// Phase 1: distance-2 competition blocks (as DistMIS's general variant).
  void compete_step(SyncContext& ctx) {
    const std::size_t offset = rounds_in_phase_ % kBlockLength;
    if (offset == 0) {
      own_block_ = rounds_in_phase_ / kBlockLength;
      rivals_.clear();
      const auto degree =
          static_cast<std::uint64_t>(view_->graph().degree(self_));
      comp_value_ =
          static_cast<std::int64_t>((degree << 40) | (rng_() >> 25));
      Message message;
      message.tag = kTagCompValue;
      message.data = {static_cast<std::int64_t>(self_),
                      static_cast<std::int64_t>(own_block_), comp_value_,
                      static_cast<std::int64_t>(kFloodRadius)};
      mark_seen(kTagCompValue, self_, own_block_ + 1);
      ctx.broadcast(std::move(message));
    } else if (offset == kFloodRadius) {
      const std::pair<std::int64_t, std::int64_t> mine{
          comp_value_, static_cast<std::int64_t>(self_)};
      const bool is_max =
          std::all_of(rivals_.begin(), rivals_.end(),
                      [&](const auto& other) { return mine > other; });
      if (is_max) win(ctx);
    }
  }

  void win(SyncContext& ctx) {
    Message message;
    message.tag = kTagCompWin;
    message.data = {static_cast<std::int64_t>(self_),
                    static_cast<std::int64_t>(own_block_),
                    static_cast<std::int64_t>(kFloodRadius)};
    for (ArcId a : dirty_arcs()) {
      const Color c = smallest_known_feasible(a);
      known_colors_[a] = c;
      assignments_.emplace_back(a, c);
      message.data.push_back(static_cast<std::int64_t>(a));
      message.data.push_back(c);
    }
    mark_seen(kTagCompWin, self_, own_block_ + 1);
    ctx.broadcast(std::move(message));
    repaired_ = true;
  }

  Color smallest_known_feasible(ArcId a) const {
    std::vector<Color> used;
    for_each_conflicting_arc(*view_, a, [&](ArcId b) {
      const Color* color = known_colors_.find(b);
      if (color != nullptr) used.push_back(*color);
    });
    std::sort(used.begin(), used.end());
    used.erase(std::unique(used.begin(), used.end()), used.end());
    Color candidate = 0;
    for (Color c : used) {
      if (c > candidate) break;
      if (c == candidate) ++candidate;
    }
    return candidate;
  }

  bool mark_seen(std::int32_t tag, NodeId origin, std::uint64_t block) {
    FDLSP_REQUIRE(block < (1u << 20), "block counter overflow");
    const std::uint64_t key = (static_cast<std::uint64_t>(origin) << 24) |
                              (block << 4) |
                              static_cast<std::uint64_t>(tag & 0xf);
    return seen_.insert(key);
  }

  const ArcView* view_;
  NodeId self_;
  Rng rng_;
  std::vector<ArcId> out_arcs_;

  bool in_exchange_phase_ = true;
  bool exchanged_ = false;
  bool repaired_ = false;
  std::size_t rounds_in_phase_ = 0;

  std::uint64_t own_block_ = 0;
  std::int64_t comp_value_ = 0;
  std::vector<std::pair<std::int64_t, std::int64_t>> rivals_;

  // Point-access only (find/[]/erase, never iterated): flat hashes keep
  // the per-message cost allocation-free — see support/flat_hash.h.
  FlatHashMap<ArcId, Color> known_colors_;
  FlatHashMap<ArcId, Color> snapshot_;  // phase-0 initial colors
  std::vector<std::pair<ArcId, Color>> assignments_;
  FlatHashSet<std::uint64_t> seen_;  // dedup only — see flat_hash.h
};

}  // namespace

DistRepairResult run_distributed_repair(const Graph& graph,
                                        const ArcColoring& stale,
                                        std::uint64_t seed,
                                        const RunConfig& run) {
  const ArcView view(graph);
  FDLSP_REQUIRE(stale.num_arcs() == view.num_arcs(),
                "stale coloring does not match graph");
  std::vector<std::unique_ptr<SyncProgram>> programs;
  programs.reserve(graph.num_nodes());
  Rng seeder(seed);
  for (NodeId v = 0; v < graph.num_nodes(); ++v)
    programs.push_back(
        std::make_unique<DistRepairProgram>(view, v, stale, seeder()));
  std::size_t round_budget = kMaxRounds;
  if (run.reliable)
    round_budget *= wrap_reliable(programs, run.fault_spec());
  SyncEngine engine(graph, std::move(programs));
  const RunAttachment attached(engine, graph, run);
  const SyncMetrics metrics = engine.run(round_budget);
  // See dist_mis.cpp: faulted runs report their outcome for the fault
  // oracles to judge instead of aborting. Repair under unhardened loss
  // terminates with stale knowledge — conflicting survivors included —
  // which is exactly the failing case the shrinker minimizes.
  const bool relaxed = attached.faulted();
  if (!relaxed)
    FDLSP_REQUIRE(metrics.completed, "distributed repair did not complete");

  DistRepairResult result;
  result.completed = metrics.completed;
  result.faults = metrics.faults;
  result.coloring = ArcColoring(view.num_arcs());
  for (NodeId v = 0; v < graph.num_nodes(); ++v) {
    const SyncProgram& top = engine.program(v);
    const auto& program =
        run.reliable
            ? static_cast<const DistRepairProgram&>(
                  static_cast<const ReliableSyncProgram&>(top).inner())
            : static_cast<const DistRepairProgram&>(top);
    for (const auto& [arc, color] : program.surviving_colors()) {
      if (!relaxed)
        FDLSP_REQUIRE(!result.coloring.is_colored(arc),
                      "arc colored by two tails");
      result.coloring.set(arc, color);
    }
    result.recolored_arcs += program.assignments().size();
  }
  if (!relaxed)
    FDLSP_REQUIRE(result.coloring.complete(), "repair left arcs uncolored");
  if (run.reliable)
    collect_transport(engine, graph.num_nodes(), result.transport, nullptr);
  result.num_slots = result.coloring.num_colors_used();
  result.rounds = metrics.rounds;
  result.messages = metrics.messages;
  return result;
}

}  // namespace fdlsp
