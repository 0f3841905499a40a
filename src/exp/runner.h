// Parallel Monte-Carlo experiment runner: evaluates a set of schedulers over
// many random instances of one workload point and aggregates the metrics the
// paper's figures plot (slot counts, rounds, bounds, average degree).
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "algos/scheduler.h"
#include "exp/workloads.h"
#include "support/stats.h"
#include "support/thread_pool.h"

namespace fdlsp {

/// Aggregated metrics for one algorithm at one workload point.
struct AlgoAggregate {
  Summary slots;
  Summary rounds;
  Summary messages;
  Summary async_time;
};

/// Aggregated results for one workload point (one x-position of a figure).
struct PointResult {
  std::string label;        ///< e.g. "n=200" or "m=1600"
  Summary avg_degree;       ///< average node degree across instances
  Summary lower_bound;      ///< Theorem 1 lower bound
  Summary upper_bound;      ///< 2Δ² upper bound
  std::map<SchedulerKind, AlgoAggregate> algorithms;
};

/// Which schedulers to evaluate and with how many instances.
struct SweepConfig {
  std::vector<SchedulerKind> kinds;
  std::size_t instances = 75;
  std::uint64_t seed = 1;
};

/// Runs all schedulers over `instances` random UDGs at the given point.
PointResult run_udg_point(const UdgPoint& point, const SweepConfig& config,
                          ThreadPool& pool);

/// Runs all schedulers over `instances` random G(n, m) graphs.
PointResult run_general_point(const GeneralPoint& point,
                              const SweepConfig& config, ThreadPool& pool);

}  // namespace fdlsp
