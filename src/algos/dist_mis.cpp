#include "algos/dist_mis.h"

#include <algorithm>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "algos/competition.h"
#include "graph/arcs.h"
#include "sim/async_engine.h"
#include "sim/reliable.h"
#include "sim/run_config.h"
#include "sim/sync_engine.h"
#include "sim/synchronizer.h"
#include "support/check.h"

namespace fdlsp {

namespace {

// Message tags of Luby's MIS; the compete phase floods the competition's
// tags (algos/competition.h).
constexpr std::int32_t kTagMisValue = 1;  // data: [value]
constexpr std::int32_t kTagMisJoin = 2;   // data: []

enum class LubyState : std::uint8_t { kUndecided, kInSet, kDominated };

/// The whole DistMIS node population in structure-of-arrays form
/// (DESIGN.md §14): Luby's MIS in parallel arrays indexed by node id,
/// around the competition block (algos/competition.h) that runs the
/// compete phase. Luby's same-round values are kept per shard, indexed by
/// ctx.shard(): one thread drives one shard.
class DistMisSet final : public SyncProgramSet {
 public:
  DistMisSet(const Graph& graph, DistMisVariant variant, std::uint64_t seed)
      : view_(graph), competition_(view_, variant, seed) {
    const std::size_t n = graph.num_nodes();
    retired_.assign(n, 0);
    in_luby_phase_.assign(n, 1);
    rounds_in_phase_.assign(n, 0);
    luby_state_.assign(n, LubyState::kUndecided);
    luby_value_.assign(n, 0);
    for (NodeId v = 0; v < n; ++v)
      if (graph.degree(v) == 0) retired_[v] = 1;
  }

  /// Sizes per-shard scratch; the competition refuses a second shard
  /// count (every run of one set uses one engine configuration).
  void prepare_shards(std::size_t shards) override {
    competition_.prepare_shards(shards);
    if (round_values_.size() == shards) return;
    round_values_.resize(shards);
    for (auto& values : round_values_)
      values.reserve(view_.graph().max_degree());
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
    competition_.on_phase(v);
  }

  // fdlsp-lint: hot — per-round steady-state path, no allocator traffic
  void on_round(NodeId v, SyncContext& ctx,
                std::span<const Message> inbox) override {
    RoundValues& values = round_values_[ctx.shard()];
    values.clear();
    for (const Message& message : inbox) process(v, values, ctx, message);
    if (retired_[v] == 0) {
      if (in_luby_phase_[v] != 0) {
        luby_step(v, values, ctx);
      } else if (luby_state_[v] == LubyState::kInSet &&
                 competition_.step(v, ctx, rounds_in_phase_[v])) {
        retired_[v] = 1;
      }
    }
    ++rounds_in_phase_[v];
  }

  const Competition& competition() const noexcept { return competition_; }

  std::size_t num_arcs() const noexcept { return view_.num_arcs(); }

 private:
  /// One round's Luby values, (value, sender) pairs.
  using RoundValues = std::vector<std::pair<std::int64_t, std::int64_t>>;

  /// Luby's messages are handled here, everything else by the competition.
  /// A malformed message is lost: corruption turns into a drop.
  // fdlsp-lint: hot — per-message steady-state path, no allocator traffic
  void process(NodeId v, RoundValues& values, SyncContext& ctx,
               const Message& message) {
    switch (message.tag) {
      case kTagMisValue:
        if (message.data.size() == 1)
          values.push_back(
              {message.data[0], static_cast<std::int64_t>(message.from)});
        break;
      case kTagMisJoin:
        if (message.data.empty() && luby_state_[v] == LubyState::kUndecided)
          luby_state_[v] = LubyState::kDominated;
        break;
      default:
        competition_.process(v, ctx, message,
                             retired_[v] == 0 &&
                                 luby_state_[v] == LubyState::kInSet);
    }
  }

  /// One round of Luby's MIS: even offsets broadcast values, odd offsets
  /// decide on local maxima.
  void luby_step(NodeId v, const RoundValues& values, SyncContext& ctx) {
    if (luby_state_[v] != LubyState::kUndecided) return;
    if (rounds_in_phase_[v] % 2 == 0) {
      luby_value_[v] = competition_.draw_priority(v);
      Message message;
      message.tag = kTagMisValue;
      message.data = {luby_value_[v]};
      // Lvalue broadcast = the engine's copying path: payloads land in
      // recycled inbox slots without evicting their spilled capacity.
      ctx.broadcast(message);
    } else {
      const std::pair<std::int64_t, std::int64_t> mine{
          luby_value_[v], static_cast<std::int64_t>(v)};
      const bool is_max =
          std::all_of(values.begin(), values.end(),
                      [&](const auto& other) { return mine > other; });
      if (is_max) {
        luby_state_[v] = LubyState::kInSet;
        Message message;
        message.tag = kTagMisJoin;
        ctx.broadcast(message);
      }
    }
  }

  const ArcView view_;
  Competition competition_;  // compete phase, learned colors, assignments

  // --- per-node state, parallel arrays indexed by node id ---
  std::vector<char> retired_;
  std::vector<char> in_luby_phase_;
  std::vector<std::size_t> rounds_in_phase_;
  std::vector<LubyState> luby_state_;
  std::vector<std::int64_t> luby_value_;

  std::vector<RoundValues> round_values_;  // indexed by ctx.shard()
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
  const Competition& competition = set.competition();
  for (std::size_t s = 0; s < competition.prepared_shards(); ++s) {
    for (const auto& [arc, color] : competition.assignments(s)) {
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
  for (const auto& [arc, color] : set.competition().assignments(0)) {
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
