// The execution environment of one scheduling run.
//
// The paper's synchronous DistMIS and asynchronous DFS, and the Section 9
// repair extension, each take an instance plus an environment: an event
// observer, a fault model, reliable transport, a thread pool, a shard count
// for the synchronous engine and an allocation auditor. RunConfig declares
// that environment once. Every runner takes one (run_scheduler,
// run_distributed_repair), and the per-algorithm option structs
// (DistMisOptions, AsyncDistMisOptions, DfsOptions, RandomizedOptions,
// SoakOptions) derive from it and add only their algorithm knobs. The seed
// is not part of it: it names the instance in every repro line and stays
// beside the graph.
//
// RunAttachment installs a config on a SyncEngine or AsyncEngine and owns
// the FaultPlan built from its spec, so no runner repeats that wiring.
#pragma once

#include <cstddef>
#include <optional>

#include "sim/fault.h"

namespace fdlsp {

class AllocAudit;
class AsyncEngine;
class Graph;
class SimTrace;
class SyncEngine;
class ThreadPool;

/// How one scheduling run executes. Nothing is owned and every member is
/// optional: the default is a plain serial run. `pool`, `shards`, `audit`
/// and `trace` never change what a run computes — results are
/// byte-identical with or without them — while `faults` and `reliable` do.
struct RunConfig {
  /// Event observer (sim/trace.h). Forces the synchronous engine serial.
  SimTrace* trace = nullptr;
  /// Fault model (sim/fault.h). A spec that injects anything arms a
  /// FaultPlan, which forces the synchronous engine serial. Under
  /// crash/churn plans, and lossy plans without `reliable`, the result's
  /// coloring may be partial and `completed` false instead of the run
  /// aborting.
  const FaultSpec* faults = nullptr;
  /// Harden every node with the ack/retransmit wrapper (sim/reliable.h),
  /// which keeps the feasibility guarantee under lossy plans.
  bool reliable = false;
  /// Workers for the synchronous engine's shards
  /// (SyncEngine::set_thread_pool). The asynchronous engine ignores it.
  ThreadPool* pool = nullptr;
  /// Synchronous engine shard count, capped at the node count; 0 means
  /// 4 × pool size (serial without a pool). Byte-identical to serial for
  /// any value. The asynchronous engine dispatches from one event wheel
  /// and rejects a nonzero count.
  std::size_t shards = 0;
  /// Allocation auditor (support/alloc_audit.h) bracketing each
  /// synchronous round or asynchronous event. Never forces serial.
  AllocAudit* audit = nullptr;

  /// The spec in force: `*faults`, or the empty spec.
  FaultSpec fault_spec() const {
    return faults != nullptr ? *faults : FaultSpec{};
  }
};

/// Installs a RunConfig on one engine: its trace and auditor, the pool and
/// shard count on the synchronous engine, and a FaultPlan built from
/// `faults` when that spec injects anything. Owns the plan, so it must
/// outlive the engine's run(). Construct it before asking the synchronous
/// engine for planned_shards(): the seams it installs decide that count.
/// On the asynchronous engine a nonzero `shards` raises contract_error.
class RunAttachment {
 public:
  RunAttachment(SyncEngine& engine, const Graph& graph, const RunConfig& run);
  RunAttachment(AsyncEngine& engine, const Graph& graph, const RunConfig& run);
  RunAttachment(const RunAttachment&) = delete;
  RunAttachment& operator=(const RunAttachment&) = delete;

  /// True when a FaultPlan is installed.
  bool faulted() const noexcept { return plan_.has_value(); }

 private:
  std::optional<FaultPlan> plan_;
};

}  // namespace fdlsp
