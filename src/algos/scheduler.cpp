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

ScheduleResult dispatch(SchedulerKind kind, const Graph& graph,
                        std::uint64_t seed, SimTrace* trace,
                        const FaultSpec* faults, bool reliable,
                        ThreadPool* pool = nullptr, std::size_t shards = 0) {
  switch (kind) {
    case SchedulerKind::kDistMisGbg: {
      DistMisOptions options;
      options.variant = DistMisVariant::kGbg;
      options.seed = seed;
      options.trace = trace;
      options.faults = faults;
      options.reliable = reliable;
      options.pool = pool;
      options.shards = shards;
      return run_dist_mis(graph, options);
    }
    case SchedulerKind::kDistMisGeneral: {
      DistMisOptions options;
      options.variant = DistMisVariant::kGeneral;
      options.seed = seed;
      options.trace = trace;
      options.faults = faults;
      options.reliable = reliable;
      options.pool = pool;
      options.shards = shards;
      return run_dist_mis(graph, options);
    }
    case SchedulerKind::kDfs: {
      DfsOptions options;
      options.seed = seed;
      options.trace = trace;
      options.faults = faults;
      options.reliable = reliable;
      options.shards = shards;
      return run_dfs_schedule(graph, options);
    }
    case SchedulerKind::kDmgc:
      return run_dmgc(graph);
    case SchedulerKind::kGreedy: {
      const ArcView view(graph);
      ScheduleResult result;
      result.coloring = greedy_coloring(view, GreedyOrder::kByDegreeDesc);
      result.num_slots = result.coloring.num_colors_used();
      return result;
    }
    case SchedulerKind::kRandomized: {
      RandomizedOptions options;
      options.seed = seed;
      options.trace = trace;
      options.faults = faults;
      options.reliable = reliable;
      options.pool = pool;
      options.shards = shards;
      return run_randomized(graph, options);
    }
  }
  FDLSP_REQUIRE(false, "unknown scheduler kind");
  return {};
}

}  // namespace

ScheduleResult run_scheduler(SchedulerKind kind, const Graph& graph,
                             std::uint64_t seed) {
  return dispatch(kind, graph, seed, nullptr, nullptr, false);
}

ScheduleResult run_scheduler_traced(SchedulerKind kind, const Graph& graph,
                                    std::uint64_t seed, SimTrace* trace) {
  return dispatch(kind, graph, seed, trace, nullptr, false);
}

ScheduleResult run_scheduler_parallel(SchedulerKind kind, const Graph& graph,
                                      std::uint64_t seed, ThreadPool& pool) {
  return dispatch(kind, graph, seed, nullptr, nullptr, false, &pool);
}

ScheduleResult run_scheduler_sharded(SchedulerKind kind, const Graph& graph,
                                     std::uint64_t seed, ThreadPool& pool,
                                     std::size_t shards) {
  return dispatch(kind, graph, seed, nullptr, nullptr, false, &pool,
                  shards);
}

ScheduleResult run_scheduler_faulted(SchedulerKind kind, const Graph& graph,
                                     std::uint64_t seed,
                                     const FaultSpec& faults, bool reliable,
                                     SimTrace* trace, std::size_t shards) {
  return dispatch(kind, graph, seed, trace, &faults, reliable, nullptr,
                  shards);
}

}  // namespace fdlsp
