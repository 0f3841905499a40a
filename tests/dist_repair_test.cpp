// Tests for the distributed repair protocol.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "algos/dist_repair.h"
#include "algos/repair.h"
#include "coloring/checker.h"
#include "coloring/conflict.h"
#include "coloring/greedy.h"
#include "graph/algorithms.h"
#include "graph/arcs.h"
#include "graph/generators.h"
#include "sim/fault.h"
#include "sim/reliable.h"
#include "sim/trace.h"
#include "support/rng.h"
#include "verify/scenario.h"

#include "fnv64.h"

namespace fdlsp {
namespace {

TEST(DistRepair, ColorsFromScratch) {
  // Entirely uncolored input: repair degenerates to distributed coloring.
  const Graph graph = generate_cycle(8);
  const ArcView view(graph);
  const auto result =
      run_distributed_repair(graph, ArcColoring(view.num_arcs()), 3);
  EXPECT_TRUE(is_feasible_schedule(view, result.coloring));
  EXPECT_EQ(result.recolored_arcs, view.num_arcs());
  EXPECT_GT(result.rounds, 0u);
}

TEST(DistRepair, KeepsFeasibleScheduleUntouched) {
  Rng rng(1001);
  const Graph graph = generate_gnm(25, 55, rng);
  const ArcView view(graph);
  const ArcColoring good = greedy_coloring(view);
  const auto result = run_distributed_repair(graph, good, 5);
  EXPECT_TRUE(is_feasible_schedule(view, result.coloring));
  EXPECT_EQ(result.recolored_arcs, 0u);
  EXPECT_EQ(result.coloring.raw(), good.raw());
}

TEST(DistRepair, FixesInjectedConflict) {
  const Graph path = generate_path(4);
  const ArcView view(path);
  ArcColoring bad = greedy_coloring(view);
  bad.set(view.find_arc(2, 3), bad.color(view.find_arc(0, 1)));
  const auto result = run_distributed_repair(path, bad, 7);
  EXPECT_TRUE(is_feasible_schedule(view, result.coloring));
  EXPECT_GE(result.recolored_arcs, 1u);
  EXPECT_LT(result.recolored_arcs, view.num_arcs());
}

TEST(DistRepair, NodeJoinIsLocal) {
  Rng rng(1003);
  auto positions = generate_udg(40, 5.0, 0.8, rng).positions;
  const Graph old_graph = udg_from_positions(positions, 0.8);
  const ArcView old_view(old_graph);
  const ArcColoring old_coloring = greedy_coloring(old_view);

  positions.push_back(Point{2.5, 2.5});
  const Graph new_graph = udg_from_positions(positions, 0.8);
  const ArcView new_view(new_graph);
  const ArcColoring transferred =
      transfer_coloring(old_view, old_coloring, new_view);

  const auto result = run_distributed_repair(new_graph, transferred, 9);
  EXPECT_TRUE(is_feasible_schedule(new_view, result.coloring));
  EXPECT_LT(result.recolored_arcs, new_view.num_arcs() / 2);
}

TEST(DistRepair, ChurnSequenceStaysFeasible) {
  Rng rng(1007);
  auto positions = generate_udg(30, 4.0, 0.8, rng).positions;
  Graph graph = udg_from_positions(positions, 0.8);
  ArcColoring coloring = greedy_coloring(ArcView(graph));
  for (std::uint64_t step = 0; step < 10; ++step) {
    const std::size_t mover = rng.next_index(positions.size());
    positions[mover] = Point{rng.next_double() * 4.0,
                             rng.next_double() * 4.0};
    const Graph new_graph = udg_from_positions(positions, 0.8);
    const ArcView new_view(new_graph);
    const ArcColoring transferred =
        transfer_coloring(ArcView(graph), coloring, new_view);
    const auto result =
        run_distributed_repair(new_graph, transferred, 100 + step);
    ASSERT_TRUE(is_feasible_schedule(new_view, result.coloring))
        << "step " << step;
    graph = new_graph;
    coloring = result.coloring;
  }
}

TEST(DistRepair, AgreesWithCentralizedRepairOnCost) {
  // The distributed protocol's clearing is more conservative than the
  // centralized one's, but the cost must stay the same order of magnitude.
  Rng rng(1009);
  auto positions = generate_udg(35, 4.5, 0.8, rng).positions;
  const Graph old_graph = udg_from_positions(positions, 0.8);
  const ArcColoring old_coloring = greedy_coloring(ArcView(old_graph));
  positions[7] = Point{2.0, 2.0};
  const Graph new_graph = udg_from_positions(positions, 0.8);
  const ArcView new_view(new_graph);
  const ArcColoring transferred =
      transfer_coloring(ArcView(old_graph), old_coloring, new_view);

  const auto distributed = run_distributed_repair(new_graph, transferred, 11);
  const auto centralized = repair_schedule(new_view, transferred);
  EXPECT_TRUE(is_feasible_schedule(new_view, distributed.coloring));
  EXPECT_TRUE(is_feasible_schedule(new_view, centralized.coloring));
  if (centralized.recolored_arcs > 0) {
    EXPECT_LE(distributed.recolored_arcs,
              10 * centralized.recolored_arcs + 10);
  }
}

TEST(DistRepair, DeterministicUnderSeed) {
  Rng rng(1013);
  const Graph graph = generate_gnm(20, 40, rng);
  const ArcView view(graph);
  const ArcColoring empty(view.num_arcs());
  const auto a = run_distributed_repair(graph, empty, 77);
  const auto b = run_distributed_repair(graph, empty, 77);
  EXPECT_EQ(a.coloring.raw(), b.coloring.raw());
  EXPECT_EQ(a.rounds, b.rounds);
}

TEST(DistRepair, EdgelessGraph) {
  const auto result = run_distributed_repair(Graph(3), ArcColoring(0), 1);
  EXPECT_EQ(result.num_slots, 0u);
}

/// The stale colorings a pinned repair starts from.
enum class Stale {
  kEmpty,      // nothing colored: the soak driver's initial full repair
  kPerturbed,  // greedy, some arcs cleared, some forced into conflict
};

/// A greedy coloring of `view` with every fifth arc cleared and every
/// seventh given the color of its first conflicting arc.
ArcColoring perturbed_coloring(const ArcView& view) {
  ArcColoring coloring = greedy_coloring(view);
  for (ArcId a = 0; a < view.num_arcs(); ++a) {
    if (a % 5 == 1) {
      coloring.clear(a);
    } else if (a % 7 == 3) {
      ArcId first = kNoArc;
      for_each_conflicting_arc(view, a, [&](ArcId b) {
        if (first == kNoArc && coloring.is_colored(b)) first = b;
      });
      if (first != kNoArc) coloring.set(a, coloring.color(first));
    }
  }
  return coloring;
}

TEST(DistRepair, HandlesStaleColorsAboveTheArcCount) {
  // Stale colors come from outside the run, e.g. from a coloring of an
  // older, larger graph, so they may exceed the current arc count. Nodes
  // must still hear them, clear the conflicting ones and color around the
  // survivors.
  for (const GraphFamily family : kAllFamilies) {
    for (const std::size_t n : {8u, 12u, 50u}) {
      for (std::uint64_t seed = 1; seed <= 3; ++seed) {
        Scenario scenario;
        scenario.family = family;
        scenario.n = n;
        scenario.density = 0.4;
        scenario.seed = seed;
        const Graph graph = materialize(scenario);
        const ArcView view(graph);
        ArcColoring stale = perturbed_coloring(view);
        for (ArcId a = 0; a < view.num_arcs(); ++a)
          if (stale.is_colored(a))
            stale.set(a, stale.color(a) + static_cast<Color>(view.num_arcs()));
        const DistRepairResult result =
            run_distributed_repair(graph, stale, seed);
        EXPECT_FALSE(find_violation(view, result.coloring).has_value())
            << family_name(family) << " n=" << n << " seed=" << seed;
      }
    }
  }
}

/// How one pinned repair sweep runs its instances.
enum class RepairMode {
  kSync,        // fault-free, serially and at 4 shards
  kReliable,    // behind the reliable wrapper under drop=0.05,bp=0.2
  kUnhardened,  // no wrapper under drop=0.1,dup=0.1
};

TEST(DistRepair, ExactOutputsArePinned) {
  // The other cases check feasibility and locality only. This one pins the
  // repair's exact output (every arc's color, the recolored-arc, round and
  // message counts) per stale coloring and execution over the six scenario
  // families at n = 8, 12 and 50, seeds 1-3. The sync hash holds serially
  // and at 4 shards. A change to how nodes store what they learn, or to
  // how the protocol competes, must leave every hash as it is.
  struct Pin {
    Stale stale;
    RepairMode mode;
    std::uint64_t hash;
  };
  const Pin pins[] = {
      {Stale::kEmpty, RepairMode::kSync, 0x581a39eae33e39acULL},
      {Stale::kEmpty, RepairMode::kReliable, 0xa70463c0e05dc35eULL},
      {Stale::kEmpty, RepairMode::kUnhardened, 0xae43e1b9b557758dULL},
      {Stale::kPerturbed, RepairMode::kSync, 0xbd58451966cc9a68ULL},
      {Stale::kPerturbed, RepairMode::kReliable, 0xccb25407b9237c5aULL},
      {Stale::kPerturbed, RepairMode::kUnhardened, 0x58016cde1f43ed33ULL},
  };
  const FaultSpec bursty = parse_fault_spec("drop=0.05,bp=0.2");
  const FaultSpec lossy = parse_fault_spec("drop=0.1,dup=0.1");
  for (const Pin& pin : pins) {
    const bool sync = pin.mode == RepairMode::kSync;
    for (const std::size_t shards : {0u, 4u}) {
      if (shards != 0 && !sync) continue;
      Fnv64 hash;
      std::size_t instances = 0;
      for (const GraphFamily family : kAllFamilies) {
        for (const std::size_t n : {8u, 12u, 50u}) {
          for (std::uint64_t seed = 1; seed <= 3; ++seed) {
            Scenario scenario;
            scenario.family = family;
            scenario.n = n;
            scenario.density = 0.4;
            scenario.seed = seed;
            const Graph graph = materialize(scenario);
            const ArcView view(graph);
            const ArcColoring stale = pin.stale == Stale::kEmpty
                                          ? ArcColoring(view.num_arcs())
                                          : perturbed_coloring(view);
            RunConfig run;
            run.shards = shards;
            if (pin.mode == RepairMode::kReliable) {
              run.faults = &bursty;
              run.reliable = true;
            } else if (pin.mode == RepairMode::kUnhardened) {
              run.faults = &lossy;
            }
            const DistRepairResult result =
                run_distributed_repair(graph, stale, seed, run);
            ++instances;
            for (ArcId a = 0; a < result.coloring.num_arcs(); ++a)
              hash.add(static_cast<std::uint32_t>(result.coloring.color(a)));
            hash.add(result.recolored_arcs);
            hash.add(result.rounds);
            hash.add(result.messages);
          }
        }
      }
      EXPECT_EQ(instances, 54u);
      EXPECT_EQ(hash.value(), pin.hash)
          << (pin.stale == Stale::kEmpty ? "empty" : "perturbed") << " mode "
          << static_cast<int>(pin.mode) << " shards " << shards << ": got 0x"
          << std::hex << hash.value();
    }
  }
}

/// One topology event applied to a graph with stable node ids.
enum class Event { kJoin, kLeave, kMove, kLink };

/// `graph` after `event`, chosen by `seed`: a node joins next to an
/// existing one and up to two of its neighbors; a node loses every link; a
/// node moves next to another one; or one link goes up (between two
/// non-adjacent nodes) or down.
Graph apply_event(const Graph& graph, Event event, std::uint64_t seed) {
  const std::size_t n = graph.num_nodes();
  const auto x = static_cast<NodeId>((seed * 7 + 3) % n);
  const auto y = static_cast<NodeId>((seed * 13 + n / 2) % n);
  GraphBuilder builder(event == Event::kJoin ? n + 1 : n);
  const bool moves = event == Event::kLeave || event == Event::kMove;
  bool link_down = event == Event::kLink && graph.has_edge(x, y);
  for (const Edge& e : graph.edges()) {
    if (moves && (e.u == x || e.v == x)) continue;
    if (link_down && ((e.u == x && e.v == y) || (e.u == y && e.v == x))) {
      link_down = false;
      continue;
    }
    builder.add_edge(e.u, e.v);
  }
  // The new node (join) or the moved node links to y and two neighbors.
  const NodeId mover = event == Event::kJoin ? static_cast<NodeId>(n) : x;
  if (event == Event::kJoin || (event == Event::kMove && y != x)) {
    builder.add_edge(mover, y);
    std::size_t extra = 0;
    for (const NeighborEntry& entry : graph.neighbors(y)) {
      if (entry.to == mover || extra == 2) continue;
      builder.add_edge(mover, entry.to);
      ++extra;
    }
  }
  if (event == Event::kLink && x != y && !graph.has_edge(x, y))
    builder.add_edge(x, y);
  return builder.build();
}

/// Endpoints of the links in one graph and not the other, ascending.
std::vector<NodeId> touched_nodes(const Graph& before, const Graph& after) {
  std::vector<NodeId> touched;
  const auto collect = [&](const Graph& from, const Graph& other) {
    for (const Edge& e : from.edges()) {
      const bool kept = e.u < other.num_nodes() && e.v < other.num_nodes() &&
                        other.has_edge(e.u, e.v);
      if (kept) continue;
      touched.push_back(e.u);
      touched.push_back(e.v);
    }
  };
  collect(before, after);
  collect(after, before);
  std::sort(touched.begin(), touched.end());
  touched.erase(std::unique(touched.begin(), touched.end()), touched.end());
  return touched;
}

/// Records every node that sends a message.
class SenderTrace final : public SimTrace {
 public:
  explicit SenderTrace(std::size_t n) : sent_(n, 0) {}
  void on_local_step(NodeId) override {}
  void on_send(NodeId from, NodeId) override { sent_[from] = 1; }
  void on_deliver(NodeId, NodeId) override {}
  void on_state_read(NodeId, NodeId) override {}
  const std::vector<char>& sent() const { return sent_; }

 private:
  std::vector<char> sent_;
};

/// Counts the messages the repair set itself sends: below a reliable
/// wrapper, the protocol's traffic without the transport's acks and
/// retransmissions, which follow the fault plan's per-message decisions.
/// Serial runs only (one counter for every node).
class SendCounter final : public SyncProgramSet {
 public:
  explicit SendCounter(SyncProgramSet& inner) : inner_(&inner) {}
  std::size_t sends() const { return sends_; }

  std::size_t size() const override { return inner_->size(); }
  void prepare_shards(std::size_t shards) override {
    inner_->prepare_shards(shards);
  }
  void on_round(NodeId v, SyncContext& ctx,
                std::span<const Message> inbox) override {
    const SyncCaptureSink capture = [&](NodeId to, const Message& message) {
      ++sends_;
      ctx.send(to, message);
    };
    SyncContext counted = ctx.reframed(ctx.round(), &capture);
    inner_->on_round(v, counted, inbox);
  }
  bool ready_for_phase_advance(NodeId v) const override {
    return inner_->ready_for_phase_advance(v);
  }
  void on_phase(NodeId v, std::size_t new_phase) override {
    inner_->on_phase(v, new_phase);
  }
  bool finished(NodeId v) const override { return inner_->finished(v); }

 private:
  SyncProgramSet* inner_;
  std::size_t sends_ = 0;
};

/// A repair and the messages its protocol sent.
struct CountedRepair {
  DistRepairResult result;
  std::size_t sends = 0;
};

/// run_distributed_repair with its protocol's sends counted: by a
/// SendCounter under the engine (and any wrapper) on a serial run, by the
/// engine on a sharded one, which runs no wrapper.
CountedRepair counted_repair(const Graph& graph, const ArcColoring& stale,
                             std::uint64_t seed, const RunConfig& run,
                             std::span<const NodeId> touched) {
  CountedRepair out;
  if (run.shards > 1) {
    out.result = run_distributed_repair(graph, stale, seed, run,
                                        drive_sync_set, touched);
    out.sends = out.result.messages;
    return out;
  }
  const SyncSetDriver drive = [&](const Graph& g, SyncProgramSet& set,
                                  const RunConfig& config,
                                  std::size_t max_rounds) {
    SendCounter counter(set);
    const SyncSetRun driven = drive_sync_set(g, counter, config, max_rounds);
    out.sends = counter.sends();
    return driven;
  };
  out.result = run_distributed_repair(graph, stale, seed, run, drive, touched);
  return out;
}

/// How one event-local comparison runs both repairs.
enum class LocalMode { kPlain, kSharded, kReliable };

TEST(DistRepair, EventLocalRepairMatchesGlobal) {
  // A transferred feasible schedule clashes only near the event, so a
  // repair that wakes the touched nodes' distance-3 ball computes what the
  // global repair computes, and its protocol sends no more messages. Only
  // nodes within four hops of the touched set send (five behind the
  // reliable wrapper, whose receivers acknowledge).
  const FaultSpec bursty = parse_fault_spec("drop=0.05,bp=0.2");
  std::size_t compared = 0;
  std::size_t woken_fewer = 0;
  for (const LocalMode mode :
       {LocalMode::kPlain, LocalMode::kSharded, LocalMode::kReliable}) {
    for (const GraphFamily family : kAllFamilies) {
      for (const std::size_t n : {12u, 50u}) {
        for (std::uint64_t seed = 1; seed <= 3; ++seed) {
          Scenario scenario;
          scenario.family = family;
          scenario.n = n;
          scenario.density = 0.4;
          scenario.seed = seed;
          const Graph before = materialize(scenario);
          const ArcView before_view(before);
          const ArcColoring old_coloring = greedy_coloring(before_view);
          for (const Event event :
               {Event::kJoin, Event::kLeave, Event::kMove, Event::kLink}) {
            const Graph after = apply_event(before, event, seed);
            const std::vector<NodeId> touched = touched_nodes(before, after);
            if (touched.empty()) continue;
            const ArcView view(after);
            const ArcColoring stale =
                transfer_coloring(before_view, old_coloring, view);
            RunConfig run;
            if (mode == LocalMode::kSharded) run.shards = 4;
            if (mode == LocalMode::kReliable) {
              run.faults = &bursty;
              run.reliable = true;
            }
            const CountedRepair global =
                counted_repair(after, stale, seed, run, {});
            // A trace changes nothing a run computes; it only pins the
            // engine serial, so the sharded mode runs without one.
            SenderTrace trace(after.num_nodes());
            RunConfig traced = run;
            if (mode != LocalMode::kSharded) traced.trace = &trace;
            const CountedRepair local =
                counted_repair(after, stale, seed, traced, touched);
            const std::string where =
                family_name(family) + " n=" + std::to_string(n) +
                " seed=" + std::to_string(seed) + " event=" +
                std::to_string(static_cast<int>(event)) + " mode=" +
                std::to_string(static_cast<int>(mode));
            EXPECT_EQ(local.result.coloring.raw(),
                      global.result.coloring.raw())
                << where;
            EXPECT_EQ(local.result.recolored_arcs,
                      global.result.recolored_arcs)
                << where;
            EXPECT_LE(local.sends, global.sends) << where;
            if (mode != LocalMode::kReliable) {
              EXPECT_EQ(local.sends, local.result.messages) << where;
            }
            if (local.sends < global.sends) ++woken_fewer;
            ++compared;
            if (mode == LocalMode::kSharded) continue;
            const std::size_t radius = mode == LocalMode::kReliable ? 5 : 4;
            const std::vector<char> near = hop_ball(after, touched, radius);
            for (NodeId v = 0; v < after.num_nodes(); ++v)
              EXPECT_TRUE(trace.sent()[v] == 0 || near[v] != 0)
                  << where << ": node " << v << " sent from beyond "
                  << radius << " hops";
          }
        }
      }
    }
  }
  EXPECT_GT(compared, 400u);
  EXPECT_GT(woken_fewer, compared / 4);
}

/// Messages of one repair that recolors a single arc at the highest-degree
/// node of a churn-lossy-shaped field (UDG, side 0.9 sqrt(n), radius 1),
/// fault-free, waking only that arc's endpoints.
std::size_t one_arc_repair_messages(std::size_t n) {
  Rng rng(42);
  const Graph graph =
      generate_udg(n, 0.9 * std::sqrt(static_cast<double>(n)), 1.0, rng)
          .graph;
  const ArcView view(graph);
  ArcColoring stale = greedy_coloring(view);
  NodeId hub = 0;
  for (NodeId v = 1; v < graph.num_nodes(); ++v)
    if (graph.degree(v) > graph.degree(hub)) hub = v;
  const NeighborEntry& first = graph.neighbors(hub).front();
  stale.clear(arc_along(hub, first));
  const std::vector<NodeId> touched{std::min(hub, first.to),
                                    std::max(hub, first.to)};
  const DistRepairResult result = run_distributed_repair(
      graph, stale, 7, {}, drive_sync_set, touched);
  EXPECT_FALSE(find_violation(view, result.coloring).has_value());
  EXPECT_EQ(result.recolored_arcs, 1u);
  return result.messages;
}

TEST(DistRepair, OneArcRepairCostIsLocal) {
  // A repair's messages grow with the event's neighbourhood, not with the
  // network: a 16 times larger field of the same density costs at most
  // twice the messages. A repair that floods every node's state costs
  // about 16 times more at n=4096 than at n=256.
  const std::size_t small = one_arc_repair_messages(256);
  const std::size_t large = one_arc_repair_messages(4096);
  EXPECT_GT(small, 0u);
  EXPECT_LE(large, 2 * small) << "n=256: " << small << ", n=4096: " << large;
}

}  // namespace
}  // namespace fdlsp
