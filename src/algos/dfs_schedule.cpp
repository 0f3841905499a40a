#include "algos/dfs_schedule.h"

#include <memory>
#include <utility>
#include <vector>

#include "coloring/conflict.h"
#include "graph/algorithms.h"
#include "graph/arcs.h"
#include "sim/reliable.h"
#include "sim/run_config.h"
#include "support/check.h"
#include "support/epoch_marks.h"
#include "support/flat_hash.h"

namespace fdlsp {

namespace {

// Message tags of the DFS protocol.
constexpr std::int32_t kTagDegree = 1;     // data: [degree]
constexpr std::int32_t kTagReq = 2;        // data: []
constexpr std::int32_t kTagSubReq = 3;     // data: []
constexpr std::int32_t kTagSubRep = 4;     // data: [arc, color, ...]
constexpr std::int32_t kTagRep = 5;        // data: [arc, color, ...]
constexpr std::int32_t kTagAssign = 6;     // data: [arc, color, ...]
constexpr std::int32_t kTagAck = 7;        // data: []
constexpr std::int32_t kTagToken = 8;      // data: []
constexpr std::int32_t kTagTokenBack = 9;  // data: []

// Event budget of the asynchronous engine.
constexpr std::size_t kMaxEvents = 50'000'000;

class DfsProgram final : public AsyncProgram {
 public:
  /// `used_colors` is scratch shared by every node of one run: the engine
  /// dispatches one handler at a time, and each use starts a fresh round.
  DfsProgram(const ArcView& view, EpochMarks& used_colors, NodeId self,
             bool is_root)
      : view_(&view), used_colors_(&used_colors), self_(self),
        is_root_(is_root) {}

  bool finished() const override { return colored_; }

  void on_start(AsyncContext& ctx) override {
    degree_ = ctx.neighbors().size();
    if (degree_ == 0) {
      // Isolated node: nothing to schedule (only legal when n == 1).
      colored_ = true;
      return;
    }
    Message message;
    message.tag = kTagDegree;
    message.data = {static_cast<std::int64_t>(degree_)};
    ctx.broadcast(std::move(message));
  }

  void on_message(AsyncContext& ctx, Message& message) override {
    // A malformed message is lost: corruption turns into a drop.
    if (!well_formed(message)) return;
    switch (message.tag) {
      case kTagDegree:
        neighbor_degree_[message.from] =
            static_cast<std::size_t>(message.data[0]);
        // Start (root) or resume (buffered token) once local degree
        // knowledge is complete — under random delays the token can outrun
        // a slow degree announcement.
        if (neighbor_degree_.size() == degree_ && (is_root_ || token_pending_))
          acquire_token(ctx);
        break;
      case kTagReq:
        handle_req(ctx, message.from);
        break;
      case kTagSubReq:
        send_pairs(ctx, message.from, kTagSubRep, own_pairs());
        break;
      case kTagSubRep:
        absorb_pairs(message);
        FDLSP_REQUIRE(pending_subreps_ > 0, "unexpected SubRep");
        collected_.insert(collected_.end(), message.data.begin(),
                          message.data.end());
        if (--pending_subreps_ == 0) finish_rep(ctx);
        break;
      case kTagRep:
        absorb_pairs(message);
        FDLSP_REQUIRE(pending_reps_ > 0, "unexpected Rep");
        if (--pending_reps_ == 0) color_and_announce(ctx);
        break;
      case kTagAssign:
        absorb_pairs(message);
        send_empty(ctx, message.from, kTagAck);
        break;
      case kTagAck:
        FDLSP_REQUIRE(pending_acks_ > 0, "unexpected Ack");
        if (--pending_acks_ == 0) advance_token(ctx);
        break;
      case kTagToken:
        parent_ = message.from;
        if (neighbor_degree_.size() == degree_) {
          acquire_token(ctx);
        } else {
          token_pending_ = true;
        }
        break;
      case kTagTokenBack:
        advance_token(ctx);
        break;
    }
  }

  const std::vector<std::pair<ArcId, Color>>& assignments() const {
    return assignments_;
  }

 private:
  /// True when `message` has a known tag and the payload that tag's layout
  /// needs: no words for the control tags, one degree in (0, n) for
  /// Degree, and an even [arc, color, ...] list for SubRep, REP and Assign
  /// whose every word lies below the arc count (arc ids by definition,
  /// colors because the greedy never needs more colors than arcs). Only an
  /// unhardened run under a corrupting fault plan ever sees anything else;
  /// the reliable wrapper discards corrupted frames first.
  bool well_formed(const Message& message) const {
    const SmallPayload& data = message.data;
    const auto below = [](std::int64_t value, std::size_t bound) {
      return value >= 0 && static_cast<std::uint64_t>(value) < bound;
    };
    switch (message.tag) {
      case kTagReq:
      case kTagSubReq:
      case kTagAck:
      case kTagToken:
      case kTagTokenBack:
        return data.empty();
      case kTagDegree:
        return data.size() == 1 && data[0] > 0 &&
               below(data[0], view_->graph().num_nodes());
      case kTagSubRep:
      case kTagRep:
      case kTagAssign:
        if (data.size() % 2 != 0) return false;
        for (const std::int64_t word : data)
          if (!below(word, view_->num_arcs())) return false;
        return true;
      default:
        return false;
    }
  }

  /// Token received (or root start): gather distance-2 colors.
  void acquire_token(AsyncContext& ctx) {
    FDLSP_REQUIRE(!colored_, "token revisited a colored node");
    token_pending_ = false;
    pending_reps_ = degree_;
    Message request;
    request.tag = kTagReq;
    ctx.broadcast(std::move(request));
  }

  /// Neighbor `from` holds the token: mark it visited, gather one relay hop
  /// of colors for it.
  void handle_req(AsyncContext& ctx, NodeId from) {
    visited_[from] = true;
    FDLSP_REQUIRE(rep_target_ == kNoNode, "two concurrent token holders");
    rep_target_ = from;
    collected_ = own_pairs();
    pending_subreps_ = degree_ - 1;
    if (pending_subreps_ == 0) {
      finish_rep(ctx);
      return;
    }
    for (const NeighborEntry& entry : ctx.neighbors())
      if (entry.to != from) send_empty(ctx, entry.to, kTagSubReq);
  }

  /// All sub-replies in: send the aggregated REP to the token holder.
  void finish_rep(AsyncContext& ctx) {
    const NodeId target = rep_target_;
    rep_target_ = kNoNode;
    send_pairs(ctx, target, kTagRep, collected_);
    collected_.clear();
  }

  /// All REPs in: greedily color uncolored incident arcs, broadcast.
  void color_and_announce(AsyncContext& ctx) {
    view_->for_each_incident_arc(self_, [&](ArcId a) {
      if (knowledge_.contains(a)) return;
      const Color c = smallest_known_feasible(a);
      learn(a, c);
      assignments_.emplace_back(a, c);
    });
    colored_ = true;
    pending_acks_ = degree_;
    Message assign;
    assign.tag = kTagAssign;
    assign.data = own_pairs();
    ctx.broadcast(std::move(assign));
  }

  /// All ACKs (or a returned token): forward the token to the unvisited
  /// neighbor of maximum degree, or give it back to the parent.
  void advance_token(AsyncContext& ctx) {
    NodeId next = kNoNode;
    std::size_t next_degree = 0;
    for (const NeighborEntry& entry : ctx.neighbors()) {
      if (visited_[entry.to]) continue;
      const std::size_t* degree = neighbor_degree_.find(entry.to);
      FDLSP_REQUIRE(degree != nullptr, "degree not yet known");
      if (next == kNoNode || *degree > next_degree ||
          (*degree == next_degree && entry.to < next)) {
        next = entry.to;
        next_degree = *degree;
      }
    }
    if (next != kNoNode) {
      visited_[next] = true;  // provisional; confirmed by its REQ
      send_empty(ctx, next, kTagToken);
    } else if (parent_ != kNoNode) {
      send_empty(ctx, parent_, kTagTokenBack);
    }
    // Root with no unvisited neighbor: traversal complete.
  }

  /// This node's known incident arc colors as a flat [arc, color, ...]
  /// list, outgoing arcs first, then incoming. Cached: learn() marks the
  /// list stale whenever it changes an incident arc's entry, and only a
  /// stale list is rebuilt from knowledge_.
  const SmallPayload& own_pairs() {
    if (!own_pairs_stale_) return own_pairs_;
    own_pairs_.clear();
    view_->for_each_incident_arc(self_, [&](ArcId a) {
      const Color* color = knowledge_.find(a);
      if (color == nullptr) return;
      own_pairs_.push_back(static_cast<std::int64_t>(a));
      own_pairs_.push_back(static_cast<std::int64_t>(*color));
    });
    own_pairs_stale_ = false;
    return own_pairs_;
  }

  /// Records arc a's color (the last write wins). Every write to
  /// knowledge_ comes through here, so marking the own-pairs list stale
  /// when an incident arc's entry changes keeps the cache exact.
  void learn(ArcId a, Color c) {
    const std::size_t known = knowledge_.size();
    Color& entry = knowledge_[a];
    if (knowledge_.size() == known && entry == c) return;
    entry = c;
    if (view_->tail(a) == self_ || view_->head(a) == self_)
      own_pairs_stale_ = true;
  }

  void absorb_pairs(const Message& message) {
    for (std::size_t i = 0; i < message.data.size(); i += 2) {
      learn(static_cast<ArcId>(message.data[i]),
            static_cast<Color>(message.data[i + 1]));
    }
  }

  /// Sends a payload-free control message.
  static void send_empty(AsyncContext& ctx, NodeId to, std::int32_t tag) {
    Message message;
    message.tag = tag;
    ctx.send(to, std::move(message));
  }

  /// Sends a copy of `pairs`, built once in the message's own payload and
  /// moved into the engine's event slot. Copying into the slot instead
  /// (send_copy) would grow every recycled slot to the longest list it
  /// ever carried.
  static void send_pairs(AsyncContext& ctx, NodeId to, std::int32_t tag,
                         const SmallPayload& pairs) {
    Message message;
    message.tag = tag;
    message.data = pairs;
    ctx.send(to, std::move(message));
  }

  /// Smallest color not used by any known-colored conflicting arc: one
  /// sweep over the shared epoch marks, no per-call container.
  Color smallest_known_feasible(ArcId a) const {
    used_colors_->begin();
    for_each_conflicting_arc(*view_, a, [&](ArcId b) {
      const Color* color = knowledge_.find(b);
      if (color != nullptr)
        used_colors_->mark(static_cast<std::size_t>(*color));
    });
    return static_cast<Color>(used_colors_->first_unmarked());
  }

  const ArcView* view_;
  EpochMarks* used_colors_;
  NodeId self_;
  bool is_root_;
  std::size_t degree_ = 0;

  // Point-access only (no observed ordering): flat hashes keep the
  // per-message cost allocation-free — see support/flat_hash.h.
  FlatHashMap<NodeId, std::size_t> neighbor_degree_;
  FlatHashMap<NodeId, bool> visited_;
  NodeId parent_ = kNoNode;
  bool colored_ = false;
  bool token_pending_ = false;

  std::size_t pending_reps_ = 0;
  std::size_t pending_acks_ = 0;
  std::size_t pending_subreps_ = 0;
  NodeId rep_target_ = kNoNode;
  SmallPayload collected_;  // REP under construction; keeps its capacity

  FlatHashMap<ArcId, Color> knowledge_;
  SmallPayload own_pairs_;  // see own_pairs()
  bool own_pairs_stale_ = true;
  std::vector<std::pair<ArcId, Color>> assignments_;
};

}  // namespace

ScheduleResult run_dfs_schedule(const Graph& graph, const DfsOptions& options) {
  FDLSP_REQUIRE(graph.num_nodes() > 0, "empty graph");
  FDLSP_REQUIRE(is_connected(graph), "DFS traversal requires connectivity");

  NodeId root = options.root;
  if (root == kNoNode) {
    root = 0;
    for (NodeId v = 1; v < graph.num_nodes(); ++v)
      if (graph.degree(v) > graph.degree(root)) root = v;
  }
  FDLSP_REQUIRE(root < graph.num_nodes(), "root out of range");

  const ArcView view(graph);
  EpochMarks used_colors;
  std::vector<std::unique_ptr<AsyncProgram>> programs;
  programs.reserve(graph.num_nodes());
  for (NodeId v = 0; v < graph.num_nodes(); ++v)
    programs.push_back(
        std::make_unique<DfsProgram>(view, used_colors, v, v == root));
  const FaultSpec spec = options.fault_spec();
  if (options.reliable) wrap_reliable(programs, spec);
  AsyncEngine engine(graph, std::move(programs), options.delay_model,
                     options.seed);
  const RunAttachment attached(engine, graph, options);
  const AsyncMetrics metrics = engine.run(kMaxEvents);
  if (options.engine_metrics != nullptr) *options.engine_metrics = metrics;
  // See dist_mis.cpp: crash/churn plans and unhardened lossy runs report
  // their outcome for the fault oracles to judge instead of aborting.
  const bool relaxed = options.relaxes_guarantees();
  if (!relaxed) {
    FDLSP_REQUIRE(metrics.completed, "DFS did not complete in message budget");
    FDLSP_REQUIRE(metrics.fifo_ok, "engine violated per-channel FIFO order");
  }

  ScheduleResult result;
  result.completed = metrics.completed;
  result.faults = metrics.faults;
  result.stall_diagnosis = metrics.stall_diagnosis;
  result.coloring = ArcColoring(view.num_arcs());
  for (NodeId v = 0; v < graph.num_nodes(); ++v) {
    const AsyncProgram& top = engine.program(v);
    const auto& program =
        options.reliable
            ? static_cast<const DfsProgram&>(
                  static_cast<const ReliableAsyncProgram&>(top).inner())
            : static_cast<const DfsProgram&>(top);
    for (const auto& [arc, color] : program.assignments()) {
      if (!relaxed)
        FDLSP_REQUIRE(!result.coloring.is_colored(arc),
                      "arc colored by two nodes");
      result.coloring.set(arc, color);
    }
  }
  if (!relaxed)
    FDLSP_REQUIRE(result.coloring.complete(), "DFS left arcs uncolored");
  if (options.reliable)
    collect_transport(engine, graph.num_nodes(), result.transport,
                      &result.suspected);
  result.num_slots = result.coloring.num_colors_used();
  result.messages = metrics.messages;
  result.async_time = metrics.completion_time;
  return result;
}

}  // namespace fdlsp
