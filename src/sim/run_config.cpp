#include "sim/run_config.h"

#include "sim/async_engine.h"
#include "sim/sync_engine.h"

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
  engine.set_trace(run.trace);
  engine.set_shards(run.shards);
  engine.set_alloc_audit(run.audit);
  if (run.faults != nullptr && run.faults->any()) {
    plan_.emplace(*run.faults, graph);
    engine.set_fault_plan(&*plan_);
  }
}

}  // namespace fdlsp
