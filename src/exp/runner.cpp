#include "exp/runner.h"

#include <mutex>
#include <string>

#include "coloring/bounds.h"
#include "coloring/checker.h"
#include "graph/arcs.h"
#include "support/check.h"
#include "support/parallel_for.h"

namespace fdlsp {

namespace {

/// Evaluates every scheduler on one instance and folds into the shared
/// aggregates under a lock (the heavy work happens outside the lock).
class PointAccumulator {
 public:
  PointResult& result;
  std::mutex mutex;

  void fold(const Graph& graph, const SweepConfig& config,
            std::uint64_t instance_seed) {
    struct Sample {
      SchedulerKind kind;
      ScheduleResult run;
    };
    std::vector<Sample> samples;
    samples.reserve(config.kinds.size());
    for (SchedulerKind kind : config.kinds) {
      ScheduleResult run =
          run_scheduler_on_components(kind, graph, instance_seed);
      // Every produced schedule is validated — a benchmark must never
      // aggregate an infeasible run.
      FDLSP_REQUIRE(is_feasible_schedule(ArcView(graph), run.coloring),
                    "scheduler produced an infeasible schedule");
      samples.push_back({kind, std::move(run)});
    }
    const double lb = static_cast<double>(lower_bound_theorem1(graph));
    const double ub = static_cast<double>(upper_bound_colors(graph));

    std::lock_guard lock(mutex);
    result.avg_degree.add(graph.average_degree());
    result.lower_bound.add(lb);
    result.upper_bound.add(ub);
    for (Sample& sample : samples) {
      AlgoAggregate& agg = result.algorithms[sample.kind];
      agg.slots.add(static_cast<double>(sample.run.num_slots));
      agg.rounds.add(static_cast<double>(sample.run.rounds));
      agg.messages.add(static_cast<double>(sample.run.messages));
      agg.async_time.add(sample.run.async_time);
    }
  }
};

}  // namespace

PointResult run_udg_point(const UdgPoint& point, const SweepConfig& config,
                          ThreadPool& pool) {
  PointResult result;
  result.label = "n=" + std::to_string(point.nodes);
  PointAccumulator accumulator{result, {}};
  parallel_for_seeded(
      pool, config.instances, config.seed,
      [&](std::size_t instance, Rng& rng) {
        const GeometricGraph geo =
            generate_udg(point.nodes, point.side, point.radius, rng);
        accumulator.fold(geo.graph, config, config.seed * 1000003 + instance);
      });
  return result;
}

PointResult run_general_point(const GeneralPoint& point,
                              const SweepConfig& config, ThreadPool& pool) {
  PointResult result;
  result.label = "m=" + std::to_string(point.edges);
  PointAccumulator accumulator{result, {}};
  parallel_for_seeded(
      pool, config.instances, config.seed,
      [&](std::size_t instance, Rng& rng) {
        const Graph graph = generate_gnm(point.nodes, point.edges, rng);
        accumulator.fold(graph, config, config.seed * 1000003 + instance);
      });
  return result;
}

}  // namespace fdlsp
