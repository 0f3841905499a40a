// The continuous-operation soak driver: a live schedule under churn.
//
// SoakDriver owns the loop the ROADMAP's "scheduling as a service" story
// needs: a DynamicTopology advances one deterministic event at a time, the
// ConflictIndex is patched incrementally (the dirty-ball constructor), and a
// pluggable cost model chooses per event between
//
//   * repair    — transfer the surviving colors and run the repair pass
//                 restricted to the distance-2 dirty ball (provably
//                 identical to repair_schedule over the whole graph, because
//                 transferred schedules only clash inside the ball), or
//   * recompute — reschedule from scratch.
//
// Both strategies run centralized by default; SoakOptions::distributed
// routes them through run_distributed_repair instead (an empty stale
// coloring makes that a distributed recompute), optionally under a fault
// plan — an incomplete or infeasible faulted run falls back to a
// centralized repair of whatever the radio produced, which is the
// crash-recovery story the fault oracles exercise. A distributed repair is
// event-local: it hands the protocol the event's touched nodes, so only
// their distance-3 wake ball runs it and the rest of the network only
// relays what reaches it (algos/dist_repair.h); a recompute and the
// initial schedule wake every node.
//
// Everything that lands in the event log is a pure function of the SoakSpec
// (wall-clock latencies are kept out of the formatted log), so one spec
// string replays a whole soak byte-for-byte at any thread count.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "coloring/coloring.h"
#include "coloring/conflict_index.h"
#include "graph/arcs.h"
#include "sim/run_config.h"
#include "soak/event.h"
#include "soak/topology.h"

namespace fdlsp {

/// Per-event scheduling strategy.
enum class SoakAction { kRepair, kRecompute };

/// "repair" / "recompute", as printed in event logs.
std::string soak_action_name(SoakAction action);

/// What the cost model sees before choosing a strategy for one event.
struct SoakCostContext {
  std::size_t num_arcs = 0;       ///< arcs of the post-event topology
  std::size_t changed_edges = 0;  ///< edge symmetric difference of the event
  std::size_t dirty_arcs = 0;     ///< arcs with an endpoint in the dirty ball
  std::size_t span_before = 0;    ///< color span carried into the event
  std::size_t bound = 0;          ///< Lemma-6 bound: max conflict degree + 1
  const SoakSpec* spec = nullptr;
};

using SoakCostModel = std::function<SoakAction(const SoakCostContext&)>;

/// Default model: recompute when the dirty ball exceeds `repair_threshold`
/// of the arcs, or when the carried span drifted past `drift_band` × the
/// instance-tight Lemma-6 bound. Under this model the post-event span never
/// exceeds drift_band × bound (band >= 1) — the drift oracle's invariant.
SoakAction default_soak_cost(const SoakCostContext& context);

/// Knobs threaded through to the scheduling machinery. The inherited
/// RunConfig is how every distributed repair executes; centralized events
/// run no engine and ignore it. Sharding is byte-identical to serial, so
/// soak repro lines replay unchanged on the sharded path.
struct SoakOptions : RunConfig {
  SoakCostModel cost_model;  ///< empty => default_soak_cost
  bool distributed = false;  ///< route repairs through run_distributed_repair
};

/// Everything one event did. The formatted log line excludes `micros` and
/// the two vectors, so logs are byte-comparable across runs and threads.
struct SoakEventRecord {
  std::uint64_t index = 0;
  SoakEventKind kind = SoakEventKind::kMove;
  NodeId primary = kNoNode;
  NodeId secondary = kNoNode;  ///< second endpoint of link events
  SoakAction action = SoakAction::kRepair;
  bool fallback = false;  ///< faulted distributed run finished centralized
  std::size_t changed_edges = 0;
  std::size_t recolored_arcs = 0;  ///< = changed_arcs.size(): slots churned
  std::size_t num_slots = 0;       ///< color span after the event
  std::vector<NodeId> touched;     ///< endpoints of changed edges, sorted
  std::vector<ArcId> changed_arcs;  ///< arcs recolored vs the transfer
  double micros = 0.0;              ///< wall latency of the scheduling step
};

/// Running aggregates over a soak (latencies live here, not in the log).
struct SoakStats {
  std::size_t events = 0;
  std::size_t repairs = 0;
  std::size_t recomputes = 0;
  std::size_t fallbacks = 0;
  std::size_t noop_events = 0;  ///< events that changed no edge
  std::size_t total_recolored = 0;
  std::size_t max_recolored = 0;
  std::size_t max_slots = 0;
  std::vector<double> event_micros;  ///< per-event scheduling latency
};

/// One formatted log line, e.g.
///   "i=12 kind=move node=5 action=repair changed=3 recolored=4 slots=9"
/// A pure function of deterministic event data.
std::string format_soak_record(const SoakEventRecord& record);

/// Newline-terminated concatenation of the record lines — the byte-compared
/// artifact of the steady-state determinism oracle.
std::string format_soak_log(const std::vector<SoakEventRecord>& log);

/// p-th percentile (p in [0, 100]) of a latency sample; 0 when empty.
double soak_percentile(std::vector<double> values, double p);

/// Owns one soak run: topology, live schedule, incremental index, log.
class SoakDriver {
 public:
  /// Builds the seed topology and its initial schedule (a full recompute).
  explicit SoakDriver(const SoakSpec& spec, SoakOptions options = {});

  /// Applies event `index` and reschedules; returns the stored record.
  const SoakEventRecord& step(std::uint64_t index);

  /// Observer contract: called after every event; return false to stop.
  using Observer =
      std::function<bool(const SoakDriver&, const SoakEventRecord&)>;

  /// Runs the spec's whole stream, honoring spec.skip.
  void run(const Observer& observer = {});

  const SoakSpec& spec() const noexcept { return spec_; }
  const DynamicTopology& topology() const noexcept { return topo_; }
  const Graph& graph() const noexcept { return graph_; }
  const ArcColoring& coloring() const noexcept { return coloring_; }
  const ConflictIndex& index() const noexcept { return *index_; }
  const SoakStats& stats() const noexcept { return stats_; }
  const std::vector<SoakEventRecord>& log() const noexcept { return log_; }

 private:
  struct Scheduled {
    ArcColoring coloring;
    bool fallback = false;
  };

  /// Distributed or centralized rescheduling of `stale` (empty = recompute)
  /// after an event that touched `touched`, whose dirty ball holds
  /// `ball_arcs` (both empty for the initial schedule).
  Scheduled schedule(const ArcView& view, ArcColoring stale,
                     std::span<const ArcId> ball_arcs,
                     std::span<const NodeId> touched, SoakAction action,
                     std::uint64_t event_seed);

  SoakSpec spec_;
  SoakOptions options_;
  std::vector<std::uint64_t> skip_;  ///< spec_.skip, sorted
  DynamicTopology topo_;
  Graph graph_;  ///< driver's own copy; survives topo_.apply for diffing
  std::optional<ConflictIndex> index_;
  ArcColoring coloring_;
  SoakStats stats_;
  std::vector<SoakEventRecord> log_;
};

}  // namespace fdlsp
