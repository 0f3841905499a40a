#include "soak/driver.h"

#include <algorithm>

#include "algos/dist_repair.h"
#include "algos/repair.h"
#include "coloring/checker.h"
#include "support/check.h"
#include "support/timer.h"

namespace fdlsp {
namespace {

// Stream tag for per-event engine seeds (distinct from the topology tags
// 0x51–0x59 in topology.cpp — all draws share one soak_hash keyspace).
constexpr std::uint64_t kStreamEngine = 0x5A;

/// Arcs over edges incident to the distance-2 ball of `touched` (sorted,
/// deduplicated). A superset of every arc the event's repair may change.
std::vector<ArcId> dirty_ball_arcs(const Graph& graph,
                                   std::span<const NodeId> touched) {
  std::vector<char> in_ball(graph.num_nodes(), 0);
  std::vector<NodeId> frontier;
  for (const NodeId v : touched) {
    if (!in_ball[v]) {
      in_ball[v] = 1;
      frontier.push_back(v);
    }
  }
  std::vector<NodeId> ball = frontier;
  std::vector<NodeId> next;
  for (int hop = 0; hop < 2; ++hop) {
    next.clear();
    for (const NodeId v : frontier) {
      for (const NeighborEntry& entry : graph.neighbors(v)) {
        if (!in_ball[entry.to]) {
          in_ball[entry.to] = 1;
          next.push_back(entry.to);
        }
      }
    }
    ball.insert(ball.end(), next.begin(), next.end());
    std::swap(frontier, next);
  }
  std::vector<ArcId> arcs;
  for (const NodeId v : ball) {
    for (const NeighborEntry& entry : graph.neighbors(v)) {
      arcs.push_back(static_cast<ArcId>(entry.edge << 1));
      arcs.push_back(static_cast<ArcId>((entry.edge << 1) | 1u));
    }
  }
  std::sort(arcs.begin(), arcs.end());
  arcs.erase(std::unique(arcs.begin(), arcs.end()), arcs.end());
  return arcs;
}

/// repair_schedule restricted to the ball. Identical output to the full
/// pass: a transferred schedule was feasible on the old topology, so its
/// same-color clashes all sit on new conflicts, whose arcs have an endpoint
/// within distance 1 of a touched node — the full pass clears and colors
/// only ball arcs, in the same ascending order as this restriction.
std::size_t local_repair(const ConflictIndex& index,
                         std::span<const ArcId> ball_arcs,
                         ArcColoring& coloring) {
  for (const ArcId a : ball_arcs) {
    if (!coloring.is_colored(a)) continue;
    const Color c = coloring.color(a);
    for (const ArcId b : index.conflicts(a)) {
      if (b >= a) break;  // rows are sorted; only lower ids matter
      if (coloring.color(b) == c) {
        coloring.clear(a);
        break;
      }
    }
  }
  ConflictScratch scratch(index);
  std::size_t recolored = 0;
  for (const ArcId a : ball_arcs) {
    if (coloring.is_colored(a)) continue;
    coloring.set(a, scratch.smallest_feasible_color(coloring, a));
    ++recolored;
  }
  return recolored;
}

}  // namespace

std::string soak_action_name(SoakAction action) {
  return action == SoakAction::kRepair ? "repair" : "recompute";
}

SoakAction default_soak_cost(const SoakCostContext& context) {
  FDLSP_REQUIRE(context.spec != nullptr, "cost context is missing its spec");
  const SoakSpec& spec = *context.spec;
  if (static_cast<double>(context.dirty_arcs) >
      spec.repair_threshold * static_cast<double>(context.num_arcs))
    return SoakAction::kRecompute;
  if (static_cast<double>(context.span_before) >
      spec.drift_band * static_cast<double>(context.bound))
    return SoakAction::kRecompute;
  return SoakAction::kRepair;
}

std::string format_soak_record(const SoakEventRecord& record) {
  std::string out = "i=" + std::to_string(record.index);
  out += " kind=" + soak_event_name(record.kind);
  out += " node=" + std::to_string(record.primary);
  if (record.secondary != kNoNode)
    out += " peer=" + std::to_string(record.secondary);
  out += " action=" + soak_action_name(record.action);
  if (record.fallback) out += "+fallback";
  out += " changed=" + std::to_string(record.changed_edges);
  out += " recolored=" + std::to_string(record.recolored_arcs);
  out += " slots=" + std::to_string(record.num_slots);
  return out;
}

std::string format_soak_log(const std::vector<SoakEventRecord>& log) {
  std::string out;
  for (const SoakEventRecord& record : log) {
    out += format_soak_record(record);
    out += '\n';
  }
  return out;
}

double soak_percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = p / 100.0 * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] +
         (values[hi] - values[lo]) * (rank - static_cast<double>(lo));
}

SoakDriver::SoakDriver(const SoakSpec& spec, SoakOptions options)
    : spec_(spec),
      options_(std::move(options)),
      skip_(spec_.skip),
      topo_(spec_),
      graph_(topo_.graph()) {
  if (!options_.cost_model) options_.cost_model = default_soak_cost;
  std::sort(skip_.begin(), skip_.end());
  const ArcView view(graph_);
  index_.emplace(view);
  // Initial schedule: a full recompute over the seed topology. The engine
  // seed index sits past the stream so it collides with no event's seed.
  Scheduled initial =
      schedule(view, ArcColoring(view.num_arcs()), {}, SoakAction::kRecompute,
               soak_hash(spec_.seed, kStreamEngine, spec_.events));
  coloring_ = std::move(initial.coloring);
  stats_.max_slots = coloring_.color_span();
}

SoakDriver::Scheduled SoakDriver::schedule(const ArcView& view,
                                           ArcColoring stale,
                                           std::span<const ArcId> ball_arcs,
                                           SoakAction action,
                                           std::uint64_t event_seed) {
  Scheduled out;
  if (options_.distributed) {
    DistRepairResult dist =
        run_distributed_repair(view.graph(), stale, event_seed, options_);
    out.coloring = std::move(dist.coloring);
    if (!dist.completed || !out.coloring.complete() ||
        find_violation(view, out.coloring, &*index_).has_value()) {
      // Crash-recovery: a faulted radio left the schedule partial or
      // conflicting — finish the event with a centralized repair of
      // whatever it produced.
      out.fallback = true;
      out.coloring =
          repair_schedule(view, std::move(out.coloring), &*index_).coloring;
    }
    return out;
  }
  if (action == SoakAction::kRepair) {
    local_repair(*index_, ball_arcs, stale);
    out.coloring = std::move(stale);
  } else {
    out.coloring =
        repair_schedule(view, ArcColoring(view.num_arcs()), &*index_).coloring;
  }
  return out;
}

const SoakEventRecord& SoakDriver::step(std::uint64_t index) {
  const Graph old_graph = std::move(graph_);
  const DynamicTopology::Applied applied = topo_.apply(index);
  graph_ = topo_.graph();

  SoakEventRecord record;
  record.index = index;
  record.kind = applied.kind;
  record.primary = applied.primary;
  record.secondary = applied.secondary;

  // One merge over the two lexicographically sorted edge lists yields both
  // the symmetric difference (-> touched endpoints) and the O(m) color
  // transfer (surviving edges keep their colors, arc orientation and all).
  const std::span<const Edge> old_edges = old_graph.edges();
  const std::span<const Edge> new_edges = graph_.edges();
  ArcColoring transferred(2 * graph_.num_edges());
  const auto lex_less = [](const Edge& a, const Edge& b) {
    return a.u != b.u ? a.u < b.u : a.v < b.v;
  };
  std::size_t i = 0;
  std::size_t j = 0;
  while (i < old_edges.size() || j < new_edges.size()) {
    const bool take_old =
        j == new_edges.size() ||
        (i < old_edges.size() && lex_less(old_edges[i], new_edges[j]));
    const bool take_new =
        !take_old &&
        (i == old_edges.size() || lex_less(new_edges[j], old_edges[i]));
    if (take_old || take_new) {
      const Edge& e = take_old ? old_edges[i] : new_edges[j];
      record.touched.push_back(e.u);
      record.touched.push_back(e.v);
      ++record.changed_edges;
      ++(take_old ? i : j);
    } else {
      const auto old_arc = static_cast<ArcId>(i << 1);
      const auto new_arc = static_cast<ArcId>(j << 1);
      if (coloring_.is_colored(old_arc))
        transferred.set(new_arc, coloring_.color(old_arc));
      if (coloring_.is_colored(old_arc | 1u))
        transferred.set(new_arc | 1u, coloring_.color(old_arc | 1u));
      ++i;
      ++j;
    }
  }
  std::sort(record.touched.begin(), record.touched.end());
  record.touched.erase(
      std::unique(record.touched.begin(), record.touched.end()),
      record.touched.end());

  Timer timer;
  if (record.changed_edges == 0) {
    // The link set is untouched (an isolated node churned or moved within
    // its radius slack): schedule and index carry over verbatim.
    record.num_slots = coloring_.color_span();
    ++stats_.noop_events;
  } else {
    const ArcView view(graph_);
    // Construct before emplace: the incremental build reads the old index.
    ConflictIndex next(view, old_graph, *index_, record.touched);
    index_.emplace(std::move(next));

    const std::vector<ArcId> ball = dirty_ball_arcs(graph_, record.touched);
    SoakCostContext context;
    context.num_arcs = view.num_arcs();
    context.changed_edges = record.changed_edges;
    context.dirty_arcs = ball.size();
    context.span_before = coloring_.color_span();
    context.bound = index_->max_conflict_degree() + 1;
    context.spec = &spec_;
    record.action = options_.cost_model(context);

    ArcColoring stale = record.action == SoakAction::kRepair
                            ? transferred
                            : ArcColoring(view.num_arcs());
    Scheduled scheduled =
        schedule(view, std::move(stale), ball, record.action,
                 soak_hash(spec_.seed, kStreamEngine, index));
    record.fallback = scheduled.fallback;
    for (std::size_t a = 0; a < view.num_arcs(); ++a) {
      if (scheduled.coloring.color(static_cast<ArcId>(a)) !=
          transferred.color(static_cast<ArcId>(a)))
        record.changed_arcs.push_back(static_cast<ArcId>(a));
    }
    record.recolored_arcs = record.changed_arcs.size();
    coloring_ = std::move(scheduled.coloring);
    record.num_slots = coloring_.color_span();
    if (record.action == SoakAction::kRepair)
      ++stats_.repairs;
    else
      ++stats_.recomputes;
  }
  record.micros = timer.seconds() * 1e6;

  ++stats_.events;
  if (record.fallback) ++stats_.fallbacks;
  stats_.total_recolored += record.recolored_arcs;
  stats_.max_recolored = std::max(stats_.max_recolored, record.recolored_arcs);
  stats_.max_slots = std::max(stats_.max_slots, record.num_slots);
  stats_.event_micros.push_back(record.micros);
  log_.push_back(std::move(record));
  return log_.back();
}

void SoakDriver::run(const Observer& observer) {
  for (std::uint64_t i = 0; i < spec_.events; ++i) {
    if (std::binary_search(skip_.begin(), skip_.end(), i)) continue;
    const SoakEventRecord& record = step(i);
    if (observer && !observer(*this, record)) return;
  }
}

}  // namespace fdlsp
