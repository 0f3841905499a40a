#include "algos/dist_repair.h"

#include <span>
#include <utility>
#include <vector>

#include "algos/competition.h"
#include "coloring/conflict.h"
#include "graph/algorithms.h"
#include "graph/arcs.h"
#include "sim/reliable.h"
#include "sim/sync_engine.h"
#include "support/check.h"

namespace fdlsp {

namespace {

// Phase-0 flood tags; phase 1 floods the competition's (algos/
// competition.h). Both open with the flood header [origin, block, ttl]. A
// State's block word carries its origin's wake budget (see dist_repair.h):
// each origin floods one State, so the dedup key stays unique.
constexpr std::int32_t kTagState = 1;  // data: [origin, wake, ttl, arc,
                                       //        color, ...]
constexpr std::int32_t kTagClear = 2;  // data: [origin, 0, ttl, arc, ...]

constexpr std::size_t kFloodRadius = 2;
constexpr std::size_t kWakeRadius = 3;  // see dist_repair.h
constexpr std::size_t kMaxRounds = 1'000'000;

/// The repair protocol over every node, in structure-of-arrays form
/// (DESIGN.md §14): the wake and the phase-0 exchange in parallel arrays
/// indexed by node id, around the competition block in DistMIS's general
/// configuration (algos/competition.h), which holds the learned colors,
/// phase 1's state and the per-shard assignment lists. A node's stale
/// out-arc colors start in its learned colors; what it vouches for after
/// repair is read back from there. A local run gives learned colors only
/// to the wake ball; a node outside it never wakes and only relays.
class DistRepairSet final : public SyncProgramSet {
 public:
  /// `ball` flags the nodes the wake from `touched` may reach (see
  /// run_distributed_repair); an empty ball wakes every node at once.
  DistRepairSet(const ArcView& view, const ArcColoring& stale,
                std::uint64_t seed, std::span<const NodeId> touched,
                std::span<const char> ball)
      : view_(view),
        competition_(view, DistMisVariant::kGeneral, seed, stale.color_span(),
                     ball),
        wake_rounds_(ball.empty() ? 0 : kWakeRadius) {
    const std::size_t n = view.graph().num_nodes();
    in_exchange_.assign(n, 1);
    wake_.assign(n, ball.empty() ? 0 : kDormant);
    for (const NodeId v : touched)
      wake_[v] = static_cast<std::int8_t>(kWakeRadius);
    finished_.assign(n, 0);
    rounds_in_phase_.assign(n, 0);
    LearnedColors& colors = competition_.colors();
    for (NodeId v = 0; v < n; ++v) {
      if (wake_[v] == kDormant || view.graph().degree(v) == 0)
        finished_[v] = 1;
      if (!colors.holds(v)) continue;
      view.for_each_out_arc(v, [&](ArcId a) {
        if (stale.is_colored(a)) colors.learn(v, a, stale.color(a));
      });
    }
  }

  std::size_t size() const override { return finished_.size(); }

  void prepare_shards(std::size_t shards) override {
    competition_.prepare_shards(shards);
  }

  bool finished(NodeId v) const override { return finished_[v] != 0; }

  /// Phase 0 lasts the wake's rounds plus five (see exchange_step); phase 1
  /// lasts until every node has repaired.
  bool ready_for_phase_advance(NodeId v) const override {
    return in_exchange_[v] != 0 ? rounds_in_phase_[v] > wake_rounds_ + 4
                                : finished_[v] != 0;
  }

  void on_phase(NodeId v, std::size_t new_phase) override {
    rounds_in_phase_[v] = 0;
    in_exchange_[v] = new_phase == 0 ? 1 : 0;
    competition_.on_phase(v);
    if (new_phase == 1 && finished_[v] == 0 && !has_dirty_arc(v))
      finished_[v] = 1;  // stale colors survived intact; nothing to do
  }

  void on_round(NodeId v, SyncContext& ctx,
                std::span<const Message> inbox) override {
    for (const Message& message : inbox) process(v, ctx, message);
    if (finished_[v] != 0) return;  // repaired or dormant: relays only
    if (in_exchange_[v] != 0) {
      exchange_step(v, ctx);
    } else {
      if (competition_.step(v, ctx, rounds_in_phase_[v])) finished_[v] = 1;
      ++rounds_in_phase_[v];
    }
  }

  const Competition& competition() const noexcept { return competition_; }

 private:
  /// State and Clear floods are handled here, everything else by the
  /// competition. A malformed message is lost: corruption turns into a
  /// drop.
  void process(NodeId v, SyncContext& ctx, const Message& message) {
    const bool state = message.tag == kTagState;
    if (!state && message.tag != kTagClear) {
      competition_.process(v, ctx, message,
                           finished_[v] == 0 && in_exchange_[v] == 0);
      return;
    }
    if (!competition_.well_formed_flood(message.data, state ? 2 : 1)) return;
    if (!competition_.mark_seen(v, message.tag,
                                static_cast<NodeId>(message.data[0]),
                                static_cast<std::uint64_t>(message.data[1])))
      return;
    LearnedColors& colors = competition_.colors();
    if (state) {
      if (message.data[2] == static_cast<std::int64_t>(kFloodRadius))
        wake(v, message.data[1]);
      // Surviving stale colors bind this node too.
      for (std::size_t i = 3; i + 1 < message.data.size(); i += 2)
        colors.learn(v, static_cast<ArcId>(message.data[i]),
                     static_cast<Color>(message.data[i + 1]));
    } else {
      for (std::size_t i = 3; i < message.data.size(); ++i)
        colors.learn(v, static_cast<ArcId>(message.data[i]), kNoColor);
    }
    competition_.relay(ctx, message);
  }

  /// A State heard from its origin, whose wake budget is `budget`, wakes a
  /// dormant node when the budget is positive: the node floods its own
  /// State in this round with one hop less. A node outside the ball has
  /// no learned colors to wake with; a budget that a corrupted block word
  /// carries there is lost like any malformed message.
  void wake(NodeId v, std::int64_t budget) {
    if (wake_[v] != kDormant || budget <= 0 ||
        budget > static_cast<std::int64_t>(kWakeRadius) ||
        !competition_.colors().holds(v))
      return;
    wake_[v] = static_cast<std::int8_t>(budget - 1);
    finished_[v] = 0;
  }

  /// A flood of v's own with an empty body, tagged `tag`, from `block`.
  static Message own_flood(NodeId v, std::int32_t tag, std::int64_t block) {
    Message message;
    message.tag = tag;
    message.data = {static_cast<std::int64_t>(v), block,
                    static_cast<std::int64_t>(kFloodRadius)};
    return message;
  }

  /// Phase 0 schedule: a node floods its state in its first round awake
  /// (round 0, or in a local run the round the wake reached it, at most
  /// wake_rounds_); in round wake_rounds_ + 2 every awake node clears its
  /// losers and floods the clears, which land by wake_rounds_ + 4 and are
  /// applied on receipt. A node woken late takes its place from the round
  /// counter, not from a count of its own calls.
  void exchange_step(NodeId v, SyncContext& ctx) {
    if (rounds_in_phase_[v] == 0) {  // this node's first round awake
      const LearnedColors& colors = competition_.colors();
      Message state = own_flood(v, kTagState, wake_[v]);
      view_.for_each_out_arc(v, [&](ArcId a) {
        const Color color = colors.color(v, a);
        if (color == kNoColor) return;
        state.data.push_back(static_cast<std::int64_t>(a));
        state.data.push_back(static_cast<std::int64_t>(color));
      });
      competition_.mark_seen(v, kTagState, v,
                             static_cast<std::uint64_t>(wake_[v]));
      if (state.data.size() > 3) ctx.broadcast(std::move(state));
    } else if (ctx.round() == wake_rounds_ + 2) {
      clear_losers(v, ctx);
    }
    rounds_in_phase_[v] = ctx.round() + 1;
  }

  /// The deterministic clearing rule: a colored out-arc loses if the
  /// initial colors hold an equally-colored conflicting arc of smaller id.
  /// Every node applies the same rule to the same colors: two rounds after
  /// the state floods left, a node has learned every one of them and no
  /// clear yet (the first clears leave in this round), so its learned
  /// colors are the initial ones as long as its own erasures wait until
  /// the loop is done.
  void clear_losers(NodeId v, SyncContext& ctx) {
    LearnedColors& colors = competition_.colors();
    Message clear = own_flood(v, kTagClear, 0);
    view_.for_each_out_arc(v, [&](ArcId a) {
      const Color mine = colors.color(v, a);
      if (mine == kNoColor) return;
      bool lost = false;
      for_each_conflicting_arc(view_, a, [&](ArcId b) {
        if (lost || b >= a) return;
        lost = colors.color(v, b) == mine;
      });
      if (lost) clear.data.push_back(static_cast<std::int64_t>(a));
    });
    for (std::size_t i = 3; i < clear.data.size(); ++i)
      colors.learn(v, static_cast<ArcId>(clear.data[i]), kNoColor);
    competition_.mark_seen(v, kTagClear, v, 0);
    if (clear.data.size() > 3) ctx.broadcast(std::move(clear));
  }

  /// True when one of v's out-arcs has no color.
  bool has_dirty_arc(NodeId v) const {
    bool dirty = false;
    view_.for_each_out_arc(v, [&](ArcId a) {
      dirty = dirty || competition_.colors().color(v, a) == kNoColor;
    });
    return dirty;
  }

  const ArcView view_;
  Competition competition_;  // phase 1, learned colors, assignments
  const std::size_t wake_rounds_;  // rounds the wake takes to spread

  /// wake_ of a node the wake has not reached.
  static constexpr std::int8_t kDormant = -1;

  // --- per-node state, parallel arrays indexed by node id ---
  std::vector<char> in_exchange_;
  std::vector<std::int8_t> wake_;  // hops the own State wakes, or kDormant
  std::vector<char> finished_;     // repaired, isolated, or dormant
  std::vector<std::size_t> rounds_in_phase_;
};

}  // namespace

DistRepairResult run_distributed_repair(const Graph& graph,
                                        const ArcColoring& stale,
                                        std::uint64_t seed,
                                        const RunConfig& run,
                                        const SyncSetDriver& drive,
                                        std::span<const NodeId> touched) {
  const ArcView view(graph);
  FDLSP_REQUIRE(stale.num_arcs() == view.num_arcs(),
                "stale coloring does not match graph");
  // The nodes a Wake from the touched ones can reach hold learned colors;
  // a global run gives them to every node.
  const std::vector<char> ball =
      touched.empty() ? std::vector<char>{}
                      : hop_ball(graph, touched, kWakeRadius);
  DistRepairSet set(view, stale, seed, touched, ball);
  const SyncSetRun driven = drive(graph, set, run, kMaxRounds);
  const SyncMetrics& metrics = driven.metrics;
  // See dist_mis.cpp: faulted runs report their outcome for the fault
  // oracles to judge instead of aborting. Repair under unhardened loss
  // terminates with stale knowledge — conflicting survivors included —
  // which is exactly the failing case the shrinker minimizes.
  const bool relaxed = driven.faulted;
  if (!relaxed)
    FDLSP_REQUIRE(metrics.completed, "distributed repair did not complete");

  DistRepairResult result;
  result.completed = metrics.completed;
  result.faults = metrics.faults;
  // Each tail vouches for its out-arcs' colors, kept or newly set; a node
  // outside the wake ball, for its stale ones. A faulted run can leave an
  // arc cleared and never re-won; it stays uncolored, and the caller's
  // completeness checks judge the outcome.
  result.coloring = ArcColoring(view.num_arcs());
  const Competition& competition = set.competition();
  const LearnedColors& colors = competition.colors();
  for (NodeId v = 0; v < graph.num_nodes(); ++v) {
    const bool holds = colors.holds(v);
    view.for_each_out_arc(v, [&](ArcId a) {
      const Color color = holds ? colors.color(v, a) : stale.color(a);
      if (color != kNoColor) result.coloring.set(a, color);
    });
  }
  for (std::size_t s = 0; s < competition.prepared_shards(); ++s)
    result.recolored_arcs += competition.assignments(s).size();
  if (!relaxed)
    FDLSP_REQUIRE(result.coloring.complete(), "repair left arcs uncolored");
  result.transport = driven.transport;
  result.num_slots = result.coloring.num_colors_used();
  result.rounds = metrics.rounds;
  result.messages = metrics.messages;
  return result;
}

}  // namespace fdlsp
