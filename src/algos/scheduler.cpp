#include "algos/scheduler.h"

#include "algos/dfs_schedule.h"
#include "algos/dist_mis.h"
#include "algos/dmgc.h"
#include "algos/randomized.h"
#include "coloring/greedy.h"
#include "graph/arcs.h"
#include "support/check.h"

namespace fdlsp {

std::string scheduler_name(SchedulerKind kind) {
  switch (kind) {
    case SchedulerKind::kDistMisGbg:
      return "distMIS";
    case SchedulerKind::kDistMisGeneral:
      return "distMIS-gen";
    case SchedulerKind::kDfs:
      return "DFS";
    case SchedulerKind::kDmgc:
      return "D-MGC";
    case SchedulerKind::kGreedy:
      return "greedy";
    case SchedulerKind::kRandomized:
      return "randomized";
  }
  FDLSP_REQUIRE(false, "unknown scheduler kind");
  return {};
}

namespace {

/// Algorithm options of type `Options` running in `run` with `seed`.
template <typename Options>
Options options_for(const RunConfig& run, std::uint64_t seed) {
  Options options;
  static_cast<RunConfig&>(options) = run;
  options.seed = seed;
  return options;
}

}  // namespace

ScheduleResult run_scheduler(SchedulerKind kind, const Graph& graph,
                             std::uint64_t seed, const RunConfig& run) {
  switch (kind) {
    case SchedulerKind::kDistMisGbg:
    case SchedulerKind::kDistMisGeneral: {
      DistMisOptions options = options_for<DistMisOptions>(run, seed);
      options.variant = kind == SchedulerKind::kDistMisGbg
                            ? DistMisVariant::kGbg
                            : DistMisVariant::kGeneral;
      return run_dist_mis(graph, options);
    }
    case SchedulerKind::kDfs:
      return run_dfs_schedule(graph, options_for<DfsOptions>(run, seed));
    case SchedulerKind::kDmgc:
      return run_dmgc(graph);
    case SchedulerKind::kGreedy: {
      const ArcView view(graph);
      ScheduleResult result;
      result.coloring = greedy_coloring(view, GreedyOrder::kByDegreeDesc);
      result.num_slots = result.coloring.num_colors_used();
      return result;
    }
    case SchedulerKind::kRandomized:
      return run_randomized(graph,
                            options_for<RandomizedOptions>(run, seed));
  }
  FDLSP_REQUIRE(false, "unknown scheduler kind");
  return {};
}

}  // namespace fdlsp
