// Pipeline benchmark driver. Runs one workload as a closed loop on one
// thread (the next item starts when the previous one returns) and prints one
// JSON document of raw measurements on stdout; perfbench/run.py turns it
// into metrics. Every layer is measured from outside, around the calls this
// file makes into each module's public functions.
//
//   perfbench --workload <sec8-sweep|udg-field|churn-lossy> --seed <n>
//             --seconds <s> --trace <0|1>
//
// Flow: untimed warm-up through the same calls on another seed; then, for
// --seconds, a timed set-up followed by a timed pass over a fixed amount of
// work, again and again. With --trace 1 one more set-up and pass run
// traced: they record a span around every item and every layer call. All
// passes run identical inputs, so their counts must agree exactly.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <exception>
#include <map>
#include <memory>
#include <queue>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "algos/dist_mis.h"
#include "algos/scheduler.h"
#include "coloring/bounds.h"
#include "coloring/checker.h"
#include "coloring/conflict_index.h"
#include "exp/workloads.h"
#include "graph/algorithms.h"
#include "graph/arcs.h"
#include "graph/generators.h"
#include "sim/async_engine.h"
#include "sim/fault.h"
#include "soak/driver.h"
#include "support/alloc_audit.h"
#include "support/rng.h"
#include "tdma/convergecast.h"
#include "tdma/radio_sim.h"
#include "tdma/schedule.h"

namespace {

using namespace fdlsp;
using Clock = std::chrono::steady_clock;

const Clock::time_point kEpoch = Clock::now();

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              kEpoch)
      .count();
}

std::uint64_t mix(std::uint64_t a, std::uint64_t b) {
  std::uint64_t x = a ^ (b + 0x9e3779b97f4a7c15ULL + (a << 6) + (a >> 2));
  return splitmix64(x);
}

// ---------------------------------------------------------------- tracing

struct SpanRecord {
  const char* name;  // "<layer>.<call>"; layer "bench" is this file's code
  std::int64_t start;
  std::int64_t end;
  std::int32_t parent;  // index into the span list, -1 for a root
  std::int64_t item;    // spans of one item share it; -1 outside items
};

/// In-memory span recorder; spans are written when the run ends.
class Tracer {
 public:
  Tracer() { spans_.reserve(1 << 16); }

  std::int32_t open(const char* name, std::int64_t item) {
    const std::int32_t parent = stack_.empty() ? -1 : stack_.back();
    if (item < 0 && parent >= 0)
      item = spans_[static_cast<std::size_t>(parent)].item;
    const auto id = static_cast<std::int32_t>(spans_.size());
    spans_.push_back({name, now_ns(), 0, parent, item});
    stack_.push_back(id);
    return id;
  }

  void close(std::int32_t id) {
    spans_[static_cast<std::size_t>(id)].end = now_ns();
    stack_.pop_back();
  }

  const std::vector<SpanRecord>& spans() const { return spans_; }

 private:
  std::vector<SpanRecord> spans_;
  std::vector<std::int32_t> stack_;
};

/// RAII span; a null tracer makes it a no-op.
class Span {
 public:
  Span(Tracer* tracer, const char* name, std::int64_t item = -1)
      : tracer_(tracer), id_(tracer ? tracer->open(name, item) : -1) {}
  ~Span() {
    if (tracer_) tracer_->close(id_);
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Tracer* tracer_;
  std::int32_t id_;
};

// ----------------------------------------------------------------- canary

/// A fixed piece of pointer-heavy C++ work, with no fdlsp code in it, that
/// times how fast the host runs such code at one moment: greedy colouring
/// events on a random geometric graph of 3000 nodes (mean degree ~8),
/// drawn from a priority queue, each updating its neighbours' hash maps.
/// Co-tenants on a shared host slow this kind of code by 1.5-3x in phases
/// that last from seconds to minutes; the canary slows with them, while no
/// change to the program under test can move it. It runs between items,
/// never inside one.
class Canary {
 public:
  Canary() : known_(kNodes) {
    const auto cells =
        static_cast<std::uint32_t>(std::sqrt(kNodes * 3.14159265 / 8.0));
    std::vector<double> x(kNodes), y(kNodes);
    std::vector<std::vector<std::uint32_t>> grid(cells * cells);
    auto cell = [&](double c) {
      return std::min(cells - 1, static_cast<std::uint32_t>(c));
    };
    for (std::uint32_t v = 0; v < kNodes; ++v) {
      x[v] = static_cast<double>(mix(1, v) >> 11) * 0x1.0p-53 * cells;
      y[v] = static_cast<double>(mix(2, v) >> 11) * 0x1.0p-53 * cells;
      grid[cell(x[v]) * cells + cell(y[v])].push_back(v);
    }
    offsets_.push_back(0);
    for (std::uint32_t v = 0; v < kNodes; ++v) {
      for (std::uint32_t gx = cell(x[v]) ? cell(x[v]) - 1 : 0;
           gx <= std::min(cells - 1, cell(x[v]) + 1); ++gx) {
        for (std::uint32_t gy = cell(y[v]) ? cell(y[v]) - 1 : 0;
             gy <= std::min(cells - 1, cell(y[v]) + 1); ++gy) {
          for (const std::uint32_t w : grid[gx * cells + gy]) {
            const double dx = x[v] - x[w];
            const double dy = y[v] - y[w];
            if (w != v && dx * dx + dy * dy < 1.0) neighbours_.push_back(w);
          }
        }
      }
      offsets_.push_back(static_cast<std::uint32_t>(neighbours_.size()));
    }
  }

  /// Nanoseconds for kEvents events, after an untimed half-length run that
  /// brings the canary's data back into cache.
  std::int64_t sample() {
    run(kEvents / 2);
    const std::int64_t start = now_ns();
    run(kEvents);
    return now_ns() - start;
  }

 private:
  static constexpr std::uint32_t kNodes = 3000;
  static constexpr std::uint32_t kEvents = 10000;

  void run(std::uint32_t events) {
    for (auto& map : known_) map.clear();
    using Event = std::pair<std::uint64_t, std::uint32_t>;  // (time, node)
    std::priority_queue<Event, std::vector<Event>, std::greater<>> queue;
    std::uint64_t state = 7;
    for (std::uint32_t v = 0; v < kNodes; v += 7)
      queue.push({splitmix64(state) % 1000, v});
    std::uint64_t sum = 0;
    for (std::uint32_t e = 0; e < events && !queue.empty(); ++e) {
      const auto [time, v] = queue.top();
      queue.pop();
      const auto& taken = known_[v];
      std::uint32_t color = 0;
      while (taken.count(color)) ++color;
      for (std::uint32_t k = offsets_[v]; k < offsets_[v + 1]; ++k) {
        const std::uint32_t w = neighbours_[k];
        known_[w][color] = v;
        sum += known_[w].size();
        if ((splitmix64(state) & 3) == 0)
          queue.push({time + 1 + splitmix64(state) % 100, w});
      }
      const std::vector<std::uint32_t> scratch(taken.size() + 1, color);
      sum += scratch.back();
    }
    sink_ = sum;
  }

  std::vector<std::uint32_t> offsets_;
  std::vector<std::uint32_t> neighbours_;
  std::vector<std::unordered_map<std::uint32_t, std::uint32_t>> known_;
  volatile std::uint64_t sink_ = 0;
};

/// Least time between two canary samples.
constexpr std::int64_t kCanaryGapNs = 250'000'000;

// ------------------------------------------------------------ phase state

/// What one timed phase (or the warm-up) accumulates. `counts` holds only
/// values that are a pure function of the inputs, so two phases over the
/// same inputs must agree on them exactly. Allocation counts are kept apart:
/// they repeat across runs with one seed, but a later phase of one process
/// can skip growth of scratch buffers an earlier phase already paid for.
struct Phase {
  Tracer* tracer = nullptr;
  Canary* canary = nullptr;  // sampled between items when set
  std::int64_t last_canary = -kCanaryGapNs;
  std::vector<std::int64_t> canary_ns;

  void sample_canary() {
    canary_ns.push_back(canary->sample());
    last_canary = now_ns();
  }
  std::map<std::string, double> counts;
  std::map<std::string, double> allocs;
  std::vector<std::int64_t> item_ns;
  std::uint64_t fingerprint = 0xcbf29ce484222325ULL;  // FNV-1a offset basis
  std::size_t failed = 0;
  std::vector<std::string> failures;
  std::int64_t run_ns = 0;

  void add(const char* key, double value) { counts[key] += value; }

  void hash(const ArcColoring& coloring) {
    const auto& raw = coloring.raw();
    const auto* bytes = reinterpret_cast<const unsigned char*>(raw.data());
    for (std::size_t i = 0; i < raw.size() * sizeof(Color); ++i) {
      fingerprint ^= bytes[i];
      fingerprint *= 0x100000001b3ULL;
    }
  }

  /// Records a failed gate; returns `ok` so callers can chain.
  bool expect(bool ok, const std::string& what) {
    if (!ok && failures.size() < 20) failures.push_back(what);
    return ok;
  }
};

/// Times `body` as one closed-loop item: latency sample, item span, and a
/// failed item on a false return or an exception.
template <class Body>
void run_item(Phase& phase, std::int64_t item, const char* label,
              Body&& body) {
  if (phase.canary && now_ns() - phase.last_canary >= kCanaryGapNs)
    phase.sample_canary();
  const std::int64_t start = now_ns();
  bool ok = false;
  {
    Span span(phase.tracer, "bench.item", item);
    try {
      ok = body();
    } catch (const std::exception& error) {
      phase.expect(false, std::string(label) + ": " + error.what());
    }
  }
  phase.item_ns.push_back(now_ns() - start);
  if (!ok) ++phase.failed;
}

/// Calls a scheduler entry point inside a span, counting its allocations.
template <class Fn>
ScheduleResult scheduled(Phase& phase, const char* span_name,
                         const char* allocs_key, Fn&& fn) {
  Span span(phase.tracer, span_name);
  const AllocAuditRegion region;
  ScheduleResult result = fn();
  phase.allocs[allocs_key] +=
      static_cast<double>(region.delta().allocations);
  return result;
}

bool feasible(Phase& phase, const Graph& graph, const ArcColoring& coloring,
              const ConflictIndex* index) {
  Span span(phase.tracer, "coloring.check");
  return is_feasible_schedule(ArcView(graph), coloring, index);
}

// ------------------------------------------------------------ sec8-sweep

/// The paper's Figs 8-12 batch: UDG plans 15/17/20 at n in {50..300} and
/// G(200, m) at average degree 4/8/16, each instance through DistMIS, DFS
/// and D-MGC with the unindexed checker and the Theorem-1 / 2Δ² window.
namespace sec8 {

struct Instance {
  Graph graph;
  bool general = false;
  std::uint64_t seed = 0;
  std::string label;
};

struct Inputs {
  std::vector<Instance> instances;
};

/// Sweeps over the 15 figure points per pass: 105 instances, enough for an
/// item p90 with ten items beyond it.
constexpr std::size_t kSweeps = 7;

Inputs setup(std::uint64_t seed, std::size_t sweeps, Tracer* tracer) {
  Inputs inputs;
  for (std::size_t sweep = 0; sweep < sweeps; ++sweep) {
    std::uint64_t point = 0;
    for (double plan : {15.0, 17.0, 20.0}) {
      for (const UdgPoint& p : udg_series(plan)) {
        const std::uint64_t s = mix(mix(seed, sweep), ++point);
        Rng rng(s);
        Span span(tracer, "graph.gen");
        inputs.instances.push_back(
            {generate_udg(p.nodes, p.side, p.radius, rng).graph, false, s,
             "udg plan=" + std::to_string(static_cast<int>(plan)) +
                 " n=" + std::to_string(p.nodes)});
      }
    }
    const std::vector<GeneralPoint> general = general_series(200);
    for (std::size_t k = 0; k + 1 < general.size(); ++k) {  // drop degree 32
      const std::uint64_t s = mix(mix(seed, sweep), ++point);
      Rng rng(s);
      Span span(tracer, "graph.gen");
      inputs.instances.push_back(
          {generate_gnm(general[k].nodes, general[k].edges, rng), true, s,
           "gnm n=200 m=" + std::to_string(general[k].edges)});
    }
  }
  return inputs;
}

bool run_instance(Phase& phase, const Instance& inst) {
  bool ok = true;
  const SchedulerKind distmis = inst.general ? SchedulerKind::kDistMisGeneral
                                             : SchedulerKind::kDistMisGbg;
  const ScheduleResult mis =
      scheduled(phase, "algos.distmis", "algos.distmis_allocs", [&] {
        return run_scheduler_on_components(distmis, inst.graph, inst.seed);
      });
  ok &= phase.expect(feasible(phase, inst.graph, mis.coloring, nullptr),
                     inst.label + ": DistMIS schedule infeasible");
  const ScheduleResult dfs =
      scheduled(phase, "algos.dfs", "algos.dfs_allocs", [&] {
        return run_scheduler_on_components(SchedulerKind::kDfs, inst.graph,
                                           inst.seed);
      });
  ok &= phase.expect(feasible(phase, inst.graph, dfs.coloring, nullptr),
                     inst.label + ": DFS schedule infeasible");
  const ScheduleResult dmgc =
      scheduled(phase, "algos.dmgc", "algos.dmgc_allocs", [&] {
        return run_scheduler_on_components(SchedulerKind::kDmgc, inst.graph,
                                           inst.seed);
      });
  ok &= phase.expect(feasible(phase, inst.graph, dmgc.coloring, nullptr),
                     inst.label + ": D-MGC schedule infeasible");
  std::size_t lower = 0;
  std::size_t upper = 0;
  {
    Span span(phase.tracer, "coloring.bound");
    lower = lower_bound_theorem1(inst.graph);
    upper = upper_bound_colors(inst.graph);
  }
  for (const ScheduleResult* run : {&mis, &dfs}) {
    ok &= phase.expect(run->num_slots >= lower && run->num_slots <= upper,
                       inst.label + ": " + std::to_string(run->num_slots) +
                           " slots outside [" + std::to_string(lower) + ", " +
                           std::to_string(upper) + "]");
  }
  for (const ScheduleResult* run : {&mis, &dfs, &dmgc}) {
    phase.hash(run->coloring);
    phase.add("schedules", 1);
    phase.add("slots_sum", static_cast<double>(run->num_slots));
  }
  phase.add("rounds_sum", static_cast<double>(mis.rounds));
  phase.add("distmis_runs", 1);
  phase.add("msgs_sum", static_cast<double>(mis.messages + dfs.messages));
  phase.add("sim.sync_msgs", static_cast<double>(mis.messages));
  phase.add("sim.dfs_msgs", static_cast<double>(dfs.messages));
  return ok;
}

void run(Phase& phase, const Inputs& inputs) {
  std::int64_t item = 0;
  for (const Instance& inst : inputs.instances) {
    run_item(phase, item++, inst.label.c_str(),
             [&] { return run_instance(phase, inst); });
    phase.add("items", 1);
  }
}

}  // namespace sec8

// ------------------------------------------------------------- udg-field

/// Deployment fields of n=500 at average degree ~6 (the density of the
/// BM_*DistMisUdg field) through index, sync DistMIS, async DistMIS behind
/// the α-synchronizer, the indexed checker, TDMA replay and convergecast.
namespace udg {

// n=1000 fields (a 47 MB working set) fall out of the shared L3 in busy
// phases and then slow about twice as much as the canary; n=500 fields
// (about 30 MB peak) follow it. Twelve fields a pass average out the
// field-to-field cost spread.
constexpr std::size_t kNodes = 500;
constexpr double kRadius = 0.5;
constexpr std::size_t kFields = 12;

struct Field {
  Graph graph;
  InducedSubgraph component;  // largest connected component
  std::uint64_t seed = 0;
};

struct Inputs {
  std::vector<Field> fields;
};

Inputs setup(std::uint64_t seed, std::size_t count, Tracer* tracer) {
  const double side = std::sqrt(static_cast<double>(kNodes) * 3.14159265 *
                                kRadius * kRadius / 6.0);
  Inputs inputs;
  for (std::size_t f = 0; f < count; ++f) {
    const std::uint64_t s = mix(seed, f + 1);
    Rng rng(s);
    Field field;
    field.seed = s;
    {
      Span span(tracer, "graph.gen");
      field.graph = generate_udg(kNodes, side, kRadius, rng).graph;
    }
    {
      Span span(tracer, "graph.component");
      field.component =
          induced_subgraph(field.graph, largest_component(field.graph));
    }
    inputs.fields.push_back(std::move(field));
  }
  return inputs;
}

/// The field's coloring restricted to its largest component (a whole
/// component has no conflicts outside itself, so this stays feasible).
ArcColoring restrict_to_component(const Field& field,
                                  const ArcColoring& coloring) {
  const ArcView view(field.graph);
  const ArcView sub_view(field.component.graph);
  ArcColoring sub(sub_view.num_arcs());
  for (ArcId a = 0; a < sub_view.num_arcs(); ++a) {
    const NodeId tail = field.component.to_original[sub_view.tail(a)];
    const NodeId head = field.component.to_original[sub_view.head(a)];
    sub.set(a, coloring.color(view.find_arc(tail, head)));
  }
  return sub;
}

bool run_field(Phase& phase, const Field& field) {
  bool ok = true;
  const std::string label = "field seed=" + std::to_string(field.seed);
  const ArcView view(field.graph);
  std::unique_ptr<ConflictIndex> index;
  {
    Span span(phase.tracer, "coloring.index");
    index = std::make_unique<ConflictIndex>(view);
  }
  const ScheduleResult sync =
      scheduled(phase, "algos.distmis", "algos.distmis_allocs", [&] {
        DistMisOptions options;
        options.variant = DistMisVariant::kGbg;
        options.seed = field.seed;
        return run_dist_mis(field.graph, options);
      });
  AsyncMetrics engine;
  const ScheduleResult async = scheduled(
      phase, "algos.distmis_async", "algos.distmis_async_allocs", [&] {
        AsyncDistMisOptions options;
        options.variant = DistMisVariant::kGbg;
        options.seed = field.seed;
        options.delay_model = DelayModel::kUniformRandom;
        options.delay_seed = mix(field.seed, 7);
        options.shards = 0;
        options.engine_metrics = &engine;
        return run_dist_mis_async(field.graph, options);
      });
  ok &= phase.expect(async.coloring.raw() == sync.coloring.raw(),
                     label + ": async coloring differs from sync coloring");
  ok &= phase.expect(feasible(phase, field.graph, sync.coloring, index.get()),
                     label + ": DistMIS schedule infeasible");

  std::unique_ptr<TdmaSchedule> schedule;
  {
    Span span(phase.tracer, "tdma.build");
    schedule = std::make_unique<TdmaSchedule>(view, sync.coloring);
  }
  RadioReport radio;
  {
    Span span(phase.tracer, "tdma.replay");
    radio = replay_frame(*schedule);
  }
  ok &= phase.expect(radio.collision_free() &&
                         radio.delivered == radio.scheduled &&
                         radio.scheduled == view.num_arcs(),
                     label + ": replay_frame delivered " +
                         std::to_string(radio.delivered) + " of " +
                         std::to_string(view.num_arcs()) + " arcs");

  ArcColoring sub_coloring;
  {
    Span span(phase.tracer, "bench.restrict");
    sub_coloring = restrict_to_component(field, sync.coloring);
  }
  const ArcView sub_view(field.component.graph);
  std::unique_ptr<TdmaSchedule> sub_schedule;
  {
    Span span(phase.tracer, "tdma.build");
    sub_schedule = std::make_unique<TdmaSchedule>(sub_view, sub_coloring);
  }
  ConvergecastReport cast;
  {
    Span span(phase.tracer, "tdma.convergecast");
    cast = run_convergecast(*sub_schedule, 0);
  }
  const std::size_t packets = field.component.graph.num_nodes() - 1;
  ok &= phase.expect(cast.packets_delivered == packets,
                     label + ": convergecast delivered " +
                         std::to_string(cast.packets_delivered) + " of " +
                         std::to_string(packets) + " packets");

  phase.hash(sync.coloring);
  phase.add("schedules", 1);
  phase.add("slots_sum", static_cast<double>(sync.num_slots));
  phase.add("rounds_sum", static_cast<double>(sync.rounds));
  phase.add("distmis_runs", 1);
  phase.add("msgs_sum", static_cast<double>(sync.messages));
  phase.add("sim.sync_msgs", static_cast<double>(sync.messages));
  phase.add("sim.async_frames", static_cast<double>(engine.messages));
  phase.add("sim.async_timers", static_cast<double>(engine.timer_events));
  phase.add("sim.async_time_sum", engine.completion_time);
  phase.add("tdma.scheduled", static_cast<double>(radio.scheduled));
  phase.add("tdma.delivered", static_cast<double>(radio.delivered));
  phase.add("tdma.epoch_frames_sum", static_cast<double>(cast.frames));
  phase.add("tdma.utilization_sum", cast.slot_utilization);
  return ok;
}

void run(Phase& phase, const Inputs& inputs) {
  std::int64_t item = 0;
  for (const Field& field : inputs.fields) {
    run_item(phase, item++, "udg-field",
             [&] { return run_field(phase, field); });
    phase.add("items", 1);
  }
}

}  // namespace udg

// ----------------------------------------------------------- churn-lossy

/// SoakDriver streams kept alive under churn over bursty links: n=256,
/// side 0.9·√n, radius 1, the default event mix, distributed repair behind
/// the adaptive reliable transport, fault plan drop=0.02,bp=0.02. One item
/// is one SoakDriver::step. A single n=256 field sits below the percolation
/// threshold (mean degree ~3.5), so one stream's cost swings with its seed
/// topology by ~30%; a pass therefore drives kStreams short streams.
namespace churn {

constexpr std::size_t kNodes = 256;
constexpr std::size_t kStreams = 20;
constexpr std::uint64_t kEvents = 16;  // per stream

struct Stream {
  // The driver keeps a pointer to its fault plan, so both live on the heap.
  std::unique_ptr<FaultSpec> faults;
  std::unique_ptr<SoakDriver> driver;
};

struct Inputs {
  std::vector<Stream> streams;
  std::uint64_t events = 0;  // per stream
};

Inputs setup(std::uint64_t seed, std::size_t streams, std::uint64_t events,
             Tracer* tracer) {
  Inputs inputs;
  inputs.events = events;
  for (std::size_t k = 0; k < streams; ++k) {
    const std::uint64_t s = mix(seed, k + 1);
    Stream stream;
    stream.faults = std::make_unique<FaultSpec>(parse_fault_spec(
        "fseed=" + std::to_string(mix(s, 3) % 1000000007ULL) +
        ",drop=0.02,bp=0.02"));
    SoakSpec spec;
    spec.seed = mix(s, 5);
    spec.n = kNodes;
    spec.events = events;
    spec.side = 0.9 * std::sqrt(static_cast<double>(kNodes));
    spec.radius = 1.0;
    SoakOptions options;
    options.distributed = true;
    options.faults = stream.faults.get();
    options.reliable = true;
    Span span(tracer, "soak.init");
    stream.driver = std::make_unique<SoakDriver>(spec, options);
    inputs.streams.push_back(std::move(stream));
  }
  return inputs;
}

void run_stream(Phase& phase, SoakDriver& driver, std::uint64_t events,
                std::int64_t& item) {
  for (std::uint64_t i = 0; i < events; ++i) {
    run_item(phase, item++, "churn-lossy", [&] {
      const SoakEventRecord* record = nullptr;
      {
        Span span(phase.tracer, "soak.step");
        const AllocAuditRegion region;
        record = &driver.step(i);
        phase.allocs["soak.step_allocs"] +=
            static_cast<double>(region.delta().allocations);
      }
      const bool ok = phase.expect(
          feasible(phase, driver.graph(), driver.coloring(), &driver.index()),
          "stream seed=" + std::to_string(driver.spec().seed) + " event " +
              std::to_string(i) + ": post-event schedule infeasible");
      phase.hash(driver.coloring());
      phase.add("slots_sum", static_cast<double>(record->num_slots));
      phase.add("recolored_sum", static_cast<double>(record->recolored_arcs));
      phase.add("changed_edges_sum",
                static_cast<double>(record->changed_edges));
      phase.add("fallbacks", record->fallback ? 1.0 : 0.0);
      return ok;
    });
    phase.add("items", 1);
  }
  const SoakStats& stats = driver.stats();
  phase.add("events", static_cast<double>(stats.events));
  phase.add("repairs", static_cast<double>(stats.repairs));
  phase.add("recomputes", static_cast<double>(stats.recomputes));
  phase.add("noops", static_cast<double>(stats.noop_events));
}

/// Runs every stream; the streams are consumed.
void run(Phase& phase, Inputs& inputs) {
  std::int64_t item = 0;
  for (Stream& stream : inputs.streams)
    run_stream(phase, *stream.driver, inputs.events, item);
}

}  // namespace churn

// ---------------------------------------------------------------- driver

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

Args parse_args(int argc, char** argv) {
  Args args;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + key);
    const std::string value = argv[++i];
    if (key == "--workload") {
      args.workload = value;
      have_workload = true;
    } else if (key == "--seed") {
      args.seed = std::stoull(value);
    } else if (key == "--seconds") {
      args.seconds = std::stod(value);
      if (!(args.seconds > 0.0 && args.seconds <= 600.0))
        throw std::invalid_argument("--seconds must be in (0, 600]");
    } else if (key == "--trace") {
      if (value != "0" && value != "1")
        throw std::invalid_argument("--trace must be 0 or 1");
      args.trace = value == "1";
    } else {
      throw std::invalid_argument("unknown argument " + key);
    }
  }
  if (!have_workload) throw std::invalid_argument("--workload is required");
  return args;
}

std::string json_string(const std::string& text) {
  std::string out = "\"";
  for (const char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string json_number(double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof buffer, "%.17g", value);
  return buffer;
}

std::string phase_json(const Phase& phase, bool traced) {
  std::string out = "{\"traced\":" + std::string(traced ? "true" : "false");
  out += ",\"run_ns\":" + std::to_string(phase.run_ns);
  out += ",\"failed\":" + std::to_string(phase.failed);
  char hex[32];
  std::snprintf(hex, sizeof hex, "%016llx",
                static_cast<unsigned long long>(phase.fingerprint));
  out += ",\"fingerprint\":\"" + std::string(hex) + "\"";
  for (const auto* series : {&phase.canary_ns, &phase.item_ns}) {
    out += series == &phase.item_ns ? "],\"item_ns\":["
                                    : ",\"canary_ns\":[";
    for (std::size_t i = 0; i < series->size(); ++i)
      out += (i ? "," : "") + std::to_string((*series)[i]);
  }
  for (const auto* map : {&phase.counts, &phase.allocs}) {
    out += map == &phase.counts ? "],\"counts\":{" : "},\"allocs\":{";
    bool first = true;
    for (const auto& [key, value] : *map) {
      out += (first ? "" : ",") + json_string(key) + ":" + json_number(value);
      first = false;
    }
  }
  out += "},\"failures\":[";
  for (std::size_t i = 0; i < phase.failures.size(); ++i)
    out += (i ? "," : "") + json_string(phase.failures[i]);
  return out + "]}";
}

/// One workload's set-up / timed-pass pair behind a common shape.
/// setup(seed, tracer, warm) builds the inputs of one pass (the same inputs
/// on every call with one seed); run(phase, inputs) is one closed-loop pass
/// over them and may consume them. Untraced set-up + pass pairs repeat for
/// --seconds: at least kMinPasses of them, and no pair starts that would end
/// past the budget if it took as long as the one before. run.py scales each
/// pass by its canary samples and takes every item's median latency over
/// the passes: the fastest sample would hinge on whether a rare quiet moment
/// fell inside the run, the median does not.
constexpr std::size_t kMinPasses = 3;
constexpr std::size_t kMaxPasses = 64;

template <class Inputs, class Setup, class Run>
int drive(const Args& args, Setup&& setup, Run&& run) {
  // Untimed warm-up through the same calls, on a seed no timed run uses.
  const std::int64_t warm_start = now_ns();
  Phase warm;
  {
    Inputs inputs = setup(mix(args.seed, 0xa11ce), nullptr, true);
    run(warm, inputs);
  }
  const std::int64_t warm_ns = now_ns() - warm_start;

  // The untraced passes, then with --trace 1 one traced set-up and pass.
  // Every pass runs identical inputs, so all must agree on every count.
  Tracer tracer;
  Canary canary;
  std::vector<std::int64_t> setup_ns;
  std::vector<Phase> phases;
  phases.reserve(kMaxPasses + 1);
  auto pair = [&](Tracer* traced) {
    const std::size_t p = phases.size();
    Phase& phase = phases.emplace_back();
    phase.tracer = traced;
    if (!traced) phase.canary = &canary;
    std::unique_ptr<Inputs> inputs;
    const std::int64_t start = now_ns();
    {
      Span span(phase.tracer, "bench.setup");
      inputs = std::make_unique<Inputs>(setup(args.seed, phase.tracer, false));
    }
    if (!traced) setup_ns.push_back(now_ns() - start);
    const std::int64_t pass_start = now_ns();
    {
      Span span(phase.tracer, "bench.phase");
      run(phase, *inputs);
    }
    phase.run_ns = now_ns() - pass_start;
    if (phase.canary) phase.sample_canary();
    if (p > 0 && (phase.counts != phases[0].counts ||
                  phase.fingerprint != phases[0].fingerprint)) {
      phase.expect(false, "pass " + std::to_string(p) +
                              ": counts or coloring fingerprint differ from "
                              "pass 0 on identical inputs");
      ++phase.failed;
    }
    return now_ns() - start;
  };
  const auto budget_ns = static_cast<std::int64_t>(args.seconds * 1e9);
  const std::int64_t measure_start = now_ns();
  std::int64_t last_pair_ns = 0;
  while (phases.size() < kMinPasses ||
         (phases.size() < kMaxPasses &&
          now_ns() - measure_start + last_pair_ns <= budget_ns))
    last_pair_ns = pair(nullptr);
  if (args.trace) pair(&tracer);

  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);

  std::string out = "{\"workload\":" + json_string(args.workload);
  out += ",\"seed\":" + std::to_string(args.seed);
  out += ",\"seconds\":" + json_number(args.seconds);
  out += ",\"compiler\":" + json_string(PERFBENCH_COMPILER);
  out += ",\"build_type\":" + json_string(PERFBENCH_BUILD_TYPE);
  out += ",\"alloc_audit\":" +
         std::string(alloc_audit_enabled() ? "true" : "false");
  out += ",\"warmup_ns\":" + std::to_string(warm_ns);
  out += ",\"warmup\":" + phase_json(warm, false);
  out += ",\"peak_rss_kb\":" + std::to_string(usage.ru_maxrss);
  out += ",\"setup_ns\":[";
  for (std::size_t i = 0; i < setup_ns.size(); ++i)
    out += (i ? "," : "") + std::to_string(setup_ns[i]);
  out += "],\"phases\":[";
  for (std::size_t p = 0; p < phases.size(); ++p)
    out += (p ? "," : "") +
           phase_json(phases[p], phases[p].tracer != nullptr);
  out += "],\"spans\":[";
  const auto& spans = tracer.spans();
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const SpanRecord& s = spans[i];
    out += (i ? ",[" : "[") + json_string(s.name) + "," +
           std::to_string(s.start) + "," + std::to_string(s.end) + "," +
           std::to_string(s.parent) + "," + std::to_string(s.item) + "]";
  }
  out += "]}\n";
  std::fwrite(out.data(), 1, out.size(), stdout);
  return std::fflush(stdout) == 0 ? 0 : 3;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Args args = parse_args(argc, argv);
    if (args.workload == "sec8-sweep") {
      return drive<sec8::Inputs>(
          args,
          [](std::uint64_t seed, Tracer* tracer, bool warm) {
            return sec8::setup(seed, warm ? 1 : sec8::kSweeps, tracer);
          },
          [](Phase& phase, const sec8::Inputs& in) { sec8::run(phase, in); });
    }
    if (args.workload == "udg-field") {
      return drive<udg::Inputs>(
          args,
          [](std::uint64_t seed, Tracer* tracer, bool warm) {
            return udg::setup(seed, warm ? 1 : udg::kFields, tracer);
          },
          [](Phase& phase, const udg::Inputs& in) { udg::run(phase, in); });
    }
    if (args.workload == "churn-lossy") {
      return drive<churn::Inputs>(
          args,
          [](std::uint64_t seed, Tracer* tracer, bool warm) {
            return warm ? churn::setup(seed, 2, 10, tracer)
                        : churn::setup(seed, churn::kStreams, churn::kEvents,
                                       tracer);
          },
          [](Phase& phase, churn::Inputs& in) { churn::run(phase, in); });
    }
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
                 args.workload.c_str());
    return 2;
  } catch (const std::exception& error) {
    std::fprintf(stderr, "perfbench: %s\n", error.what());
    return 2;
  }
}
