// Fault sweep: robustness cost of the ack/retransmit hardening as a
// function of the message-drop rate. For each drop rate, runs the hardened
// synchronous (DistMIS/GBG) and asynchronous (DFS) schedulers over a batch
// of seeded G(n, m) instances and reports slot count, message count, and
// completion time (engine rounds / virtual time) relative to the fault-free
// baseline — the slots/messages/time-vs-drop-rate table in EXPERIMENTS.md.
#include <cstdint>
#include <iostream>
#include <vector>

#include "algos/scheduler.h"
#include "coloring/checker.h"
#include "graph/algorithms.h"
#include "graph/arcs.h"
#include "graph/generators.h"
#include "sim/fault.h"
#include "support/check.h"
#include "support/cli.h"
#include "support/rng.h"
#include "support/stats.h"
#include "support/table.h"

int main(int argc, char** argv) {
  using namespace fdlsp;
  const CliArgs args(argc, argv);
  const auto nodes = static_cast<std::size_t>(args.get_int("nodes", 40));
  const auto edges = static_cast<std::size_t>(args.get_int("edges", 80));
  const auto trials = static_cast<std::size_t>(args.get_int("trials", 5));
  const auto base_seed = static_cast<std::uint64_t>(args.get_int("seed", 3));

  const std::vector<double> drop_rates = {0.0, 0.05, 0.1, 0.2, 0.3};

  TextTable table({"scheduler", "drop", "slots", "messages", "time",
                   "msg overhead"});
  for (const SchedulerKind kind :
       {SchedulerKind::kDistMisGbg, SchedulerKind::kDfs}) {
    double baseline_messages = 0.0;
    for (const double drop : drop_rates) {
      Summary slots, messages, time;
      for (std::size_t trial = 0; trial < trials; ++trial) {
        Rng rng(base_seed + trial);
        Graph graph = generate_gnm(nodes, edges, rng);
        // DFS needs a connected instance; resample until one appears.
        while (kind == SchedulerKind::kDfs && !is_connected(graph))
          graph = generate_gnm(nodes, edges, rng);

        FaultSpec spec;
        spec.seed = base_seed + 100 * trial + 7;
        spec.drop_rate = drop;
        const ScheduleResult result = run_scheduler_faulted(
            kind, graph, base_seed + trial, spec, /*reliable=*/true);
        FDLSP_REQUIRE(result.completed, "hardened run must reach quiescence");
        FDLSP_REQUIRE(
            is_feasible_schedule(ArcView(graph), result.coloring),
            "hardened run must stay feasible");
        slots.add(static_cast<double>(result.num_slots));
        messages.add(static_cast<double>(result.messages));
        time.add(kind == SchedulerKind::kDfs
                     ? result.async_time
                     : static_cast<double>(result.rounds));
      }
      if (drop == 0.0) baseline_messages = messages.mean();
      table.add_row(
          {scheduler_name(kind), fmt_double(drop, 2),
           fmt_double(slots.mean(), 1), fmt_double(messages.mean(), 0),
           fmt_double(time.mean(), 0),
           fmt_double(baseline_messages == 0.0
                          ? 1.0
                          : messages.mean() / baseline_messages,
                      2)});
    }
  }

  std::cout << "== Fault sweep: hardened schedulers vs drop rate (G(n,m) "
            << "n=" << nodes << " m=" << edges << ", " << trials
            << " trials) ==\n";
  table.print(std::cout);
  std::cout << "(slots stay flat — reliability is a transport concern; the "
               "price of loss is retransmission traffic and time)\n";

  // Robustness tax under correlated (Gilbert–Elliott) loss: the transport
  // pays with backoff and probing only where bursts actually bite.
  const std::vector<double> burst_rates = {0.0, 0.1, 0.2, 0.3};
  TextTable burst_table({"scheduler", "bp", "messages", "retransmits", "time",
                         "suspicions"});
  for (const SchedulerKind kind :
       {SchedulerKind::kDistMisGbg, SchedulerKind::kDfs}) {
    for (const double burst : burst_rates) {
      Summary messages, retransmits, time, suspicions;
      for (std::size_t trial = 0; trial < trials; ++trial) {
        Rng rng(base_seed + trial);
        Graph graph = generate_gnm(nodes, edges, rng);
        while (kind == SchedulerKind::kDfs && !is_connected(graph))
          graph = generate_gnm(nodes, edges, rng);

        FaultSpec spec;
        spec.seed = base_seed + 100 * trial + 13;
        spec.burst_rate = burst;
        spec.burst_recover = 0.25;
        spec.burst_loss = 0.9;
        const ScheduleResult result = run_scheduler_faulted(
            kind, graph, base_seed + trial, spec, /*reliable=*/true);
        FDLSP_REQUIRE(result.completed, "hardened run must reach quiescence");
        FDLSP_REQUIRE(
            is_feasible_schedule(ArcView(graph), result.coloring),
            "hardened run must stay feasible");
        messages.add(static_cast<double>(result.messages));
        retransmits.add(static_cast<double>(result.transport.retransmits));
        time.add(kind == SchedulerKind::kDfs
                     ? result.async_time
                     : static_cast<double>(result.rounds));
        suspicions.add(static_cast<double>(result.transport.suspicions));
      }
      burst_table.add_row(
          {scheduler_name(kind), fmt_double(burst, 2),
           fmt_double(messages.mean(), 0), fmt_double(retransmits.mean(), 0),
           fmt_double(time.mean(), 0), fmt_double(suspicions.mean(), 1)});
    }
  }
  std::cout << "\n== Robustness tax: reliable transport under "
            << "Gilbert-Elliott bursts (bq=0.25, bloss=0.9) ==\n";
  burst_table.print(std::cout);
  std::cout << "(bursts cost backoff and retransmissions; bounded burst loss "
               "alone never trips the failure detector)\n";
  return 0;
}
