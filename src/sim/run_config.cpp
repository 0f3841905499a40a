#include "sim/run_config.h"

#include "sim/async_engine.h"
#include "sim/sync_engine.h"
#include "support/check.h"

namespace fdlsp {

RunAttachment::RunAttachment(SyncEngine& engine, const Graph& graph,
                             const RunConfig& run) {
  engine.set_trace(run.trace);
  engine.set_thread_pool(run.pool);
  engine.set_shards(run.shards);
  engine.set_alloc_audit(run.audit);
  if (run.faults != nullptr && run.faults->any()) {
    plan_.emplace(*run.faults, graph);
    engine.set_fault_plan(&*plan_);
  }
}

RunAttachment::RunAttachment(AsyncEngine& engine, const Graph& graph,
                             const RunConfig& run) {
  FDLSP_REQUIRE(run.shards == 0,
                "shards names synchronous engine shards; the asynchronous "
                "engine dispatches from one event wheel");
  engine.set_trace(run.trace);
  engine.set_alloc_audit(run.audit);
  if (run.faults != nullptr && run.faults->any()) {
    plan_.emplace(*run.faults, graph);
    engine.set_fault_plan(&*plan_);
  }
}

}  // namespace fdlsp
