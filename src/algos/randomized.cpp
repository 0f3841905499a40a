#include "algos/randomized.h"

// remembered_finals_ and the per-round veto batches are *iterated* to build
// outgoing messages, so their key order is part of the wire format: a
// std::map's sorted order is exactly the determinism contract needed here,
// and a flat hash (which exposes no iteration) cannot express it.
// fdlsp-lint: allow(ordered-in-protocol-state)

#include <algorithm>
#include <map>
#include <span>
#include <vector>

#include "graph/arcs.h"
#include "sim/reliable.h"
#include "sim/sync_engine.h"
#include "support/check.h"
#include "support/rng.h"

namespace fdlsp {

namespace {

constexpr std::int32_t kTagState = 1;  // data: [arc, color, final, ...]
constexpr std::int32_t kTagVeto = 2;   // data: [arc, ...]

constexpr std::size_t kMaxRounds = 1'000'000;

/// One tentative out-arc assignment.
struct OutArc {
  ArcId arc;
  Color color = kNoColor;
  bool final = false;
  std::size_t retries = 0;
};

/// A neighbor arc as seen by this node during detection.
struct SeenArc {
  ArcId arc;
  Color color;
  bool final;
  NodeId owner;    ///< tail — where a veto goes
  bool toward_me;  ///< head == self (an in-arc of this node)
};

/// All nodes' randomized-coloring state in structure-of-arrays form (the
/// per-node-program layout this replaces lives on in git history). The
/// out-arc slots and their reverse arcs are CSR-packed across nodes; the
/// per-round detection buffer is per-shard scratch, reused every round.
/// Seeding, message assembly order, and the veto tie-breaks are unchanged,
/// so schedules are byte-identical to the per-node layout for every seed.
class RandomizedSet final : public SyncProgramSet {
 public:
  /// `relaxed`: the run's faults may void the protocol's guarantees (see
  /// run_randomized), so a conflict between two finalized arcs is left to
  /// the fault oracles instead of aborting the run.
  RandomizedSet(const Graph& graph, std::uint64_t seed, bool relaxed)
      : view_(graph), relaxed_(relaxed) {
    const std::size_t n = graph.num_nodes();
    // Per-node streams drawn from one seeded sequence, in node order — the
    // same seeding the per-node-program layout used.
    Rng seeder(seed);
    rng_.reserve(n);
    for (std::size_t v = 0; v < n; ++v) rng_.emplace_back(seeder());
    out_offsets_.assign(n + 1, 0);
    for (NodeId v = 0; v < n; ++v) {
      out_offsets_[v + 1] =
          out_offsets_[v] + view_.out_arcs(v).size();
    }
    out_.resize(out_offsets_[n]);
    rev_.resize(out_offsets_[n]);
    base_range_.assign(n, 2);
    done_.assign(n, 0);
    announced_.assign(n, 0);
    remembered_.resize(n);
    for (NodeId v = 0; v < n; ++v) {
      std::size_t pos = out_offsets_[v];
      for (ArcId a : view_.out_arcs(v)) {
        out_[pos] = OutArc{a};
        rev_[pos] = ArcView::reverse(a);
        ++pos;
      }
      base_range_[v] = 2 * graph.degree(v) + 2;
      done_[v] = out_offsets_[v + 1] == out_offsets_[v] ? 1 : 0;
      announced_[v] = done_[v];
    }
  }

  std::size_t size() const override { return done_.size(); }

  /// Sizes per-shard scratch; one prepared set sticks to one shard count
  /// (same contract as DistMisSet, and all the reliable-composition path
  /// needs — see run_randomized).
  void prepare_shards(std::size_t shards) override {
    FDLSP_REQUIRE(shards > 0, "shard count must be positive");
    if (shards == prepared_) return;
    FDLSP_REQUIRE(prepared_ == 0,
                  "randomized state cannot be re-sharded once prepared");
    prepared_ = shards;
    shards_.resize(shards);
  }

  /// A node is finished once everything is final AND the final state has
  /// been broadcast — neighbors remember it for their later detections.
  bool finished(NodeId v) const override {
    return done_[v] != 0 && announced_[v] != 0;
  }
  bool ready_for_phase_advance(NodeId) const override { return true; }
  void on_phase(NodeId, std::size_t) override {}

  void on_round(NodeId v, SyncContext& ctx,
                std::span<const Message> inbox) override {
    // Steps are aligned by the *global* round counter so relays and
    // late-finishing nodes never desynchronize.
    switch (ctx.round() % 3) {
      case 0:
        draw_and_broadcast(v, ctx);
        break;
      case 1:
        detect_and_veto(v, ctx, inbox);
        break;
      case 2:
        finalize(v, inbox);
        break;
    }
  }

  /// Shard count prepare_shards() was called with (0 before any run).
  std::size_t prepared_shards() const noexcept { return prepared_; }

  std::span<const OutArc> out_arcs(NodeId v) const {
    return {out_.data() + out_offsets_[v],
            out_offsets_[v + 1] - out_offsets_[v]};
  }

  std::size_t num_arcs() const noexcept { return view_.num_arcs(); }

 private:
  std::span<OutArc> outs(NodeId v) {
    return {out_.data() + out_offsets_[v],
            out_offsets_[v + 1] - out_offsets_[v]};
  }

  /// Round 0: redraw vetoed colors, broadcast the out-arc state. After the
  /// node is done it broadcasts exactly once more (the final announcement)
  /// and then goes quiet.
  void draw_and_broadcast(NodeId v, SyncContext& ctx) {
    if (done_[v] != 0 && announced_[v] != 0) return;
    for (OutArc& out : outs(v)) {
      if (out.final || out.color != kNoColor) continue;
      const std::size_t range = base_range_[v] + 2 * out.retries;
      out.color = static_cast<Color>(rng_[v].next_below(range));
    }
    Message state;
    state.tag = kTagState;
    for (const OutArc& out : outs(v)) {
      state.data.push_back(static_cast<std::int64_t>(out.arc));
      state.data.push_back(out.color);
      state.data.push_back(out.final ? 1 : 0);
    }
    ctx.broadcast(std::move(state));
    if (done_[v] != 0) announced_[v] = 1;
  }

  bool arc_points_at_me(NodeId v, ArcId arc) const {
    const auto* first = rev_.data() + out_offsets_[v];
    const auto* last = rev_.data() + out_offsets_[v + 1];
    return std::find(first, last, arc) != last;
  }

  /// Round 1: apply the four distance-1 witness rules and veto losers.
  ///
  ///   (1) shared tail            — both owned by one node
  ///   (2) tx while rx            — my out-arc vs an arc toward me
  ///   (3) shared head            — two arcs toward me
  ///   (4) hidden terminal at me  — an arc toward me vs another neighbor's
  ///                                outgoing arc
  ///
  /// Every Definition-2 conflict pair has some node for which one of these
  /// rules fires, so pairwise distance-1 observation is complete.
  void detect_and_veto(NodeId v, SyncContext& ctx,
                       std::span<const Message> inbox) {
    std::vector<SeenArc>& seen = shards_[ctx.shard()].seen;
    seen.clear();
    for (const OutArc& out : outs(v))
      seen.push_back(SeenArc{out.arc, out.color, out.final, v, false});
    for (const auto& [arc, remembered] : remembered_[v])
      seen.push_back(remembered);
    for (const Message& message : inbox) {
      if (message.tag != kTagState || !well_formed(message)) continue;
      for (std::size_t i = 0; i < message.data.size(); i += 3) {
        const auto arc = static_cast<ArcId>(message.data[i]);
        if (remembered_[v].count(arc)) continue;  // already listed
        const bool is_final = message.data[i + 2] != 0;
        const SeenArc entry{arc, static_cast<Color>(message.data[i + 1]),
                            is_final, message.from,
                            arc_points_at_me(v, arc)};
        if (is_final) remembered_[v][arc] = entry;
        seen.push_back(entry);
      }
    }

    std::map<NodeId, std::vector<std::int64_t>> vetoes;
    for (std::size_t i = 0; i < seen.size(); ++i) {
      for (std::size_t j = i + 1; j < seen.size(); ++j) {
        const SeenArc& a = seen[i];
        const SeenArc& b = seen[j];
        if (a.color != b.color || a.arc == b.arc || a.color == kNoColor)
          continue;
        const bool shared_tail = a.owner == b.owner;
        const bool tx_while_rx = (a.owner == v && b.toward_me) ||
                                 (b.owner == v && a.toward_me);
        const bool shared_head = a.toward_me && b.toward_me;
        const bool hidden =
            (a.toward_me && b.owner != v && b.owner != a.owner) ||
            (b.toward_me && a.owner != v && a.owner != b.owner);
        if (!(shared_tail || tx_while_rx || shared_head || hidden)) continue;
        if (a.final && b.final) {
          // A lost veto let both finalize: neither can change any more.
          FDLSP_REQUIRE(relaxed_, "two finalized arcs conflict — protocol bug");
          continue;
        }
        const SeenArc& loser = a.final          ? b
                               : b.final        ? a
                               : a.arc > b.arc  ? a
                                                : b;
        if (loser.owner == v) {
          local_veto(v, loser.arc);
        } else {
          vetoes[loser.owner].push_back(static_cast<std::int64_t>(loser.arc));
        }
      }
    }

    for (auto& [target, arcs] : vetoes) {
      Message message;
      message.tag = kTagVeto;
      message.data = std::move(arcs);
      ctx.send(target, std::move(message));
    }
  }

  /// Round 2: finalize arcs that drew no veto; vetoed arcs redraw next step.
  void finalize(NodeId v, std::span<const Message> inbox) {
    if (done_[v] != 0) return;
    for (const Message& message : inbox) {
      if (message.tag != kTagVeto || !well_formed(message)) continue;
      for (std::int64_t raw : message.data)
        local_veto(v, static_cast<ArcId>(raw));
    }
    bool all_final = true;
    for (OutArc& out : outs(v)) {
      if (out.final) continue;
      if (out.color == kNoColor) {
        all_final = false;
        continue;
      }
      out.final = true;
    }
    done_[v] = all_final ? 1 : 0;
  }

  /// A message a fault plan corrupted is lost, never trusted: a State
  /// message must hold whole (arc, color, final) triples with a real arc,
  /// a color and a 0/1 flag, and a Veto message must name real arcs.
  bool well_formed(const Message& message) const {
    const SmallPayload& data = message.data;
    const auto is_arc = [&](std::int64_t value) {
      return value >= 0 &&
             static_cast<std::uint64_t>(value) < view_.num_arcs();
    };
    if (message.tag == kTagVeto)
      return std::all_of(data.begin(), data.end(), is_arc);
    if (data.size() % 3 != 0) return false;
    for (std::size_t i = 0; i < data.size(); i += 3)
      if (!is_arc(data[i]) || data[i + 1] < 0 ||
          (data[i + 2] != 0 && data[i + 2] != 1))
        return false;
    return true;
  }

  void local_veto(NodeId v, ArcId arc) {
    for (OutArc& out : outs(v)) {
      if (out.arc == arc && !out.final && out.color != kNoColor) {
        out.color = kNoColor;
        ++out.retries;
      }
    }
  }

  /// Detection buffer owned by one shard: exactly one worker executes a
  /// shard's callbacks, and the buffer is dead between rounds (cleared,
  /// never freed).
  struct ShardScratch {
    std::vector<SeenArc> seen;
  };

  const ArcView view_;
  const bool relaxed_;
  std::vector<Rng> rng_;
  // Tentative out-arc slots and their reverse arcs, CSR-packed by node.
  std::vector<std::size_t> out_offsets_;
  std::vector<OutArc> out_;
  std::vector<ArcId> rev_;
  std::vector<std::map<ArcId, SeenArc>> remembered_;
  std::vector<std::size_t> base_range_;
  std::vector<char> done_;
  std::vector<char> announced_;
  std::size_t prepared_ = 0;  // shard count scratch is sized for

  std::vector<ShardScratch> shards_;  // indexed by ctx.shard()
};

}  // namespace

ScheduleResult run_randomized(const Graph& graph,
                              const RandomizedOptions& options,
                              const SyncSetDriver& drive) {
  // See dist_mis.cpp: crash/churn plans and unhardened lossy runs report
  // their outcome for the fault oracles to judge instead of aborting.
  const bool relaxed = options.relaxes_guarantees();
  RandomizedSet set(graph, options.seed, relaxed);
  const SyncSetRun driven = drive(graph, set, options, kMaxRounds);
  const SyncMetrics& metrics = driven.metrics;
  if (!relaxed)
    FDLSP_REQUIRE(metrics.completed,
                  "randomized algorithm did not converge in round budget");

  ScheduleResult result;
  result.completed = metrics.completed;
  result.faults = metrics.faults;
  result.coloring = ArcColoring(set.num_arcs());
  for (NodeId v = 0; v < graph.num_nodes(); ++v) {
    for (const OutArc& out : set.out_arcs(v)) {
      if (!relaxed)
        FDLSP_REQUIRE(out.final, "unfinalized arc after completion");
      if (out.final) result.coloring.set(out.arc, out.color);
    }
  }
  if (!relaxed)
    FDLSP_REQUIRE(result.coloring.complete(),
                  "randomized left arcs uncolored");
  result.transport = driven.transport;
  result.suspected = driven.suspected;
  result.num_slots = result.coloring.num_colors_used();
  result.rounds = metrics.rounds;
  result.messages = metrics.messages;
  return result;
}

}  // namespace fdlsp
