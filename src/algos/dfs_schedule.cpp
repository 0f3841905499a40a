#include "algos/dfs_schedule.h"

#include <algorithm>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "coloring/conflict.h"
#include "graph/algorithms.h"
#include "graph/arcs.h"
#include "sim/reliable.h"
#include "support/check.h"
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

class DfsProgram final : public AsyncProgram {
 public:
  DfsProgram(const ArcView& view, NodeId self, bool is_root)
      : view_(&view), self_(self), is_root_(is_root) {}

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
        send_color_pairs(ctx, message.from, kTagSubRep, own_incident_pairs());
        break;
      case kTagSubRep:
        absorb_pairs(message);
        FDLSP_REQUIRE(pending_subreps_ > 0, "unexpected SubRep");
        collected_pairs_.insert(collected_pairs_.end(), message.data.begin(),
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
        send_color_pairs(ctx, message.from, kTagAck, {});
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
      default:
        FDLSP_REQUIRE(false, "unknown message tag");
    }
  }

  const std::vector<std::pair<ArcId, Color>>& assignments() const {
    return assignments_;
  }

 private:
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
    collected_pairs_ = own_incident_pairs();
    pending_subreps_ = degree_ - 1;
    if (pending_subreps_ == 0) {
      finish_rep(ctx);
      return;
    }
    for (const NeighborEntry& entry : ctx.neighbors()) {
      if (entry.to == from) continue;
      Message sub;
      sub.tag = kTagSubReq;
      ctx.send(entry.to, std::move(sub));
    }
  }

  /// All sub-replies in: send the aggregated REP to the token holder.
  void finish_rep(AsyncContext& ctx) {
    const NodeId target = rep_target_;
    rep_target_ = kNoNode;
    send_color_pairs(ctx, target, kTagRep, collected_pairs_);
    collected_pairs_.clear();
  }

  /// All REPs in: greedily color uncolored incident arcs, broadcast.
  void color_and_announce(AsyncContext& ctx) {
    for (ArcId a : view_->incident_arcs(self_)) {
      if (knowledge_.contains(a)) continue;
      const Color c = smallest_known_feasible(a);
      knowledge_[a] = c;
      assignments_.emplace_back(a, c);
    }
    colored_ = true;
    pending_acks_ = degree_;
    Message assign;
    assign.tag = kTagAssign;
    assign.data = own_incident_pairs();
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
    Message token;
    if (next != kNoNode) {
      visited_[next] = true;  // provisional; confirmed by its REQ
      token.tag = kTagToken;
      ctx.send(next, std::move(token));
    } else if (parent_ != kNoNode) {
      token.tag = kTagTokenBack;
      ctx.send(parent_, std::move(token));
    }
    // Root with no unvisited neighbor: traversal complete.
  }

  /// This node's incident arc colors as a flat [arc, color, ...] list.
  std::vector<std::int64_t> own_incident_pairs() const {
    std::vector<std::int64_t> pairs;
    for (ArcId a : view_->incident_arcs(self_)) {
      const Color* color = knowledge_.find(a);
      if (color == nullptr) continue;
      pairs.push_back(static_cast<std::int64_t>(a));
      pairs.push_back(static_cast<std::int64_t>(*color));
    }
    return pairs;
  }

  void absorb_pairs(const Message& message) {
    for (std::size_t i = 0; i + 1 < message.data.size(); i += 2) {
      knowledge_[static_cast<ArcId>(message.data[i])] =
          static_cast<Color>(message.data[i + 1]);
    }
  }

  void send_color_pairs(AsyncContext& ctx, NodeId to, std::int32_t tag,
                        std::vector<std::int64_t> pairs) {
    Message message;
    message.tag = tag;
    message.data = std::move(pairs);
    ctx.send(to, std::move(message));
  }

  Color smallest_known_feasible(ArcId a) const {
    std::vector<Color> used;
    for_each_conflicting_arc(*view_, a, [&](ArcId b) {
      const Color* color = knowledge_.find(b);
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

  const ArcView* view_;
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
  std::vector<std::int64_t> collected_pairs_;

  FlatHashMap<ArcId, Color> knowledge_;
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
  std::vector<std::unique_ptr<AsyncProgram>> programs;
  programs.reserve(graph.num_nodes());
  for (NodeId v = 0; v < graph.num_nodes(); ++v)
    programs.push_back(std::make_unique<DfsProgram>(view, v, v == root));
  const FaultSpec spec = options.faults != nullptr ? *options.faults
                                                   : FaultSpec{};
  if (options.reliable) wrap_reliable(programs, spec);
  AsyncEngine engine(graph, std::move(programs), options.delay_model,
                     options.seed);
  engine.set_trace(options.trace);
  engine.set_shards(options.shards);
  engine.set_alloc_audit(options.audit);
  std::optional<FaultPlan> plan;
  if (options.faults != nullptr && options.faults->any()) {
    plan.emplace(spec, graph);
    engine.set_fault_plan(&*plan);
  }
  const AsyncMetrics metrics = engine.run(options.max_messages);
  if (options.engine_metrics != nullptr) *options.engine_metrics = metrics;
  // See dist_mis.cpp: crash/churn plans and unhardened lossy runs report
  // their outcome for the fault oracles to judge instead of aborting.
  const bool relaxed =
      plan.has_value() &&
      (spec.crash_fraction > 0.0 || spec.link_down_fraction > 0.0 ||
       !options.reliable);
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
