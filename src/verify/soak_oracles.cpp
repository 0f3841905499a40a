#include "verify/soak_oracles.h"

#include <algorithm>
#include <cstdio>

#include "coloring/checker.h"
#include "support/check.h"
#include "support/cli.h"

namespace fdlsp {
namespace {

/// Flags for the distance-2 node ball of `touched` over `graph`.
std::vector<char> node_ball(const Graph& graph,
                            std::span<const NodeId> touched) {
  std::vector<char> in_ball(graph.num_nodes(), 0);
  std::vector<NodeId> frontier;
  for (const NodeId v : touched) {
    if (!in_ball[v]) {
      in_ball[v] = 1;
      frontier.push_back(v);
    }
  }
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
    std::swap(frontier, next);
  }
  return in_ball;
}

std::string format_band(double band) {
  char buffer[32];
  std::snprintf(buffer, sizeof buffer, "%g", band);
  return buffer;
}

std::string band_flag(const SoakOracleOptions* options) {
  if (options == nullptr || options->drift_band <= 0.0) return {};
  return " --soak-band=" + format_band(options->drift_band);
}

}  // namespace

SoakVerdict run_soak_with_oracles(const SoakSpec& spec,
                                  const SoakOptions& driver_options,
                                  const SoakOracleOptions& oracle_options) {
  SoakVerdict verdict;
  const double band = oracle_options.drift_band > 0.0
                          ? oracle_options.drift_band
                          : spec.drift_band;
  const bool faulted = driver_options.faults != nullptr;
  SoakDriver driver(spec, driver_options);

  const auto fail = [&](std::uint64_t at, std::string why) {
    verdict.ok = false;
    verdict.failing_event = at;
    verdict.failure = std::move(why);
  };

  // Whole-graph sweep: fresh-index byte-compare + full feasibility.
  const auto full_sweep = [&](std::uint64_t at) {
    const ArcView view(driver.graph());
    const ConflictIndex fresh(view);
    if (fresh.raw_offsets() != driver.index().raw_offsets() ||
        fresh.raw_neighbors() != driver.index().raw_neighbors()) {
      fail(at, "incremental ConflictIndex diverged from a fresh build");
      return false;
    }
    if (!driver.coloring().complete()) {
      fail(at, "schedule incomplete at full sweep");
      return false;
    }
    if (const auto witness = find_violation(view, driver.coloring(), &fresh)) {
      fail(at, "distance-2 violation at full sweep: arcs " +
                   std::to_string(witness->a) + " and " +
                   std::to_string(witness->b));
      return false;
    }
    return true;
  };

  driver.run([&](const SoakDriver& d, const SoakEventRecord& record) {
    if (oracle_options.check_feasibility) {
      if (!d.coloring().complete()) {
        fail(record.index, "schedule incomplete after event");
        return false;
      }
      // Only the recolored arcs can have broken feasibility (the rest of
      // the schedule was feasible and untouched); scan just their rows.
      for (const ArcId a : record.changed_arcs) {
        const Color c = d.coloring().color(a);
        for (const ArcId b : d.index().conflicts(a)) {
          if (d.coloring().color(b) == c) {
            fail(record.index, "distance-2 violation between arcs " +
                                   std::to_string(a) + " and " +
                                   std::to_string(b));
            return false;
          }
        }
      }
    }
    if (oracle_options.check_locality && !faulted && !record.fallback &&
        record.action == SoakAction::kRepair &&
        !record.changed_arcs.empty()) {
      const std::vector<char> ball = node_ball(d.graph(), record.touched);
      const ArcView view(d.graph());
      for (const ArcId a : record.changed_arcs) {
        if (!ball[view.tail(a)] && !ball[view.head(a)]) {
          fail(record.index, "repair recolored arc " + std::to_string(a) +
                                 " outside the distance-2 ball");
          return false;
        }
      }
    }
    if (oracle_options.check_drift) {
      const std::size_t bound = d.index().max_conflict_degree() + 1;
      if (static_cast<double>(record.num_slots) >
          band * static_cast<double>(bound)) {
        fail(record.index,
             "span " + std::to_string(record.num_slots) + " drifted past " +
                 format_band(band) + " x Lemma-6 bound " +
                 std::to_string(bound));
        return false;
      }
    }
    if (oracle_options.full_check_stride != 0 &&
        d.stats().events % oracle_options.full_check_stride == 0)
      return full_sweep(record.index);
    return true;
  });

  // Closing sweep over the final state (flagged with the stream length).
  if (verdict.ok && oracle_options.full_check_stride != 0)
    full_sweep(spec.events);

  verdict.stats = driver.stats();
  verdict.event_log = format_soak_log(driver.log());
  verdict.final_coloring = driver.coloring();
  return verdict;
}

OracleVerdict check_soak_determinism(const SoakSpec& spec,
                                     const SoakOptions& a,
                                     const SoakOptions& b) {
  OracleVerdict verdict;
  SoakDriver run_a(spec, a);
  SoakDriver run_b(spec, b);
  run_a.run();
  run_b.run();
  if (format_soak_log(run_a.log()) != format_soak_log(run_b.log())) {
    verdict.ok = false;
    verdict.failure = "soak event logs differ between the two runs";
  } else if (run_a.coloring().raw() != run_b.coloring().raw()) {
    verdict.ok = false;
    verdict.failure = "final soak schedules differ between the two runs";
  }
  return verdict;
}

SoakShrinkOutcome shrink_soak_case(const SoakSpec& start,
                                   const SoakFailingPredicate& still_fails,
                                   const ShrinkOptions& options) {
  SoakShrinkOutcome out;
  out.spec = start;
  std::sort(out.spec.skip.begin(), out.spec.skip.end());
  FDLSP_REQUIRE(still_fails(out.spec),
                "shrink_soak_case requires a failing spec");

  const auto fails = [&](const SoakSpec& candidate) {
    if (out.checks >= options.max_checks) return false;
    ++out.checks;
    return still_fails(candidate);
  };

  // Stage 1: shortest failing stream prefix. Events past the violating one
  // cannot influence it (draws are per-index), so the predicate is monotone
  // in the prefix length.
  std::uint64_t lo = 0;
  std::uint64_t hi = out.spec.events;
  while (lo < hi) {
    const std::uint64_t mid = lo + (hi - lo) / 2;
    SoakSpec candidate = out.spec;
    candidate.events = mid;
    if (fails(candidate)) {
      hi = mid;
    } else {
      lo = mid + 1;
    }
  }
  out.spec.events = hi;
  std::erase_if(out.spec.skip,
                [&](std::uint64_t i) { return i >= out.spec.events; });

  // Stage 2: ddmin the surviving event indices into the skip list — a
  // skipped index vanishes without renumbering any other event's draws.
  std::vector<std::uint64_t> active;
  for (std::uint64_t i = 0; i < out.spec.events; ++i) {
    if (!std::binary_search(out.spec.skip.begin(), out.spec.skip.end(), i))
      active.push_back(i);
  }
  std::size_t block = active.size() / 2;
  while (block >= 1) {
    std::size_t begin = 0;
    while (begin < active.size()) {
      const std::size_t end = std::min(begin + block, active.size());
      SoakSpec candidate = out.spec;
      candidate.skip.insert(
          candidate.skip.end(),
          active.begin() + static_cast<std::ptrdiff_t>(begin),
          active.begin() + static_cast<std::ptrdiff_t>(end));
      std::sort(candidate.skip.begin(), candidate.skip.end());
      if (fails(candidate)) {
        out.spec = std::move(candidate);
        active.erase(active.begin() + static_cast<std::ptrdiff_t>(begin),
                     active.begin() + static_cast<std::ptrdiff_t>(end));
      } else {
        begin = end;
      }
    }
    if (block == 1) break;
    block = std::max<std::size_t>(1, block / 2);
  }

  // Stage 3: disarm whole event classes (at least one must stay armed).
  double SoakSpec::*const weights[] = {
      &SoakSpec::join_weight, &SoakSpec::leave_weight,
      &SoakSpec::link_down_weight, &SoakSpec::link_up_weight,
      &SoakSpec::move_weight};
  for (double SoakSpec::*const field : weights) {
    if (out.spec.*field == 0.0) continue;
    SoakSpec candidate = out.spec;
    candidate.*field = 0.0;
    if (candidate.join_weight + candidate.leave_weight +
            candidate.move_weight + candidate.link_down_weight +
            candidate.link_up_weight <=
        0.0)
      continue;
    if (fails(candidate)) out.spec = std::move(candidate);
  }

  // Stage 4: halve the node universe.
  while (out.spec.n > 4) {
    SoakSpec candidate = out.spec;
    candidate.n = std::max<std::size_t>(4, candidate.n / 2);
    if (!fails(candidate)) break;
    out.spec = std::move(candidate);
  }
  return out;
}

std::string soak_repro_command(const SoakSpec& spec,
                               const SoakOracleOptions* oracle_options) {
  return "--soak=" + format_soak_spec(spec) + band_flag(oracle_options);
}

std::string soak_repro_command(const SoakSpec& spec, const FaultSpec& faults,
                               bool reliable,
                               const SoakOracleOptions* oracle_options) {
  std::string out =
      "--soak=" + format_soak_spec(spec) + " --faults=" +
      format_fault_spec(faults);
  if (!reliable) out += " --reliable=0";
  return out + band_flag(oracle_options);
}

void require_soak_replay_flags(const CliArgs& args) {
  args.require_known(kSoakReplayFlags);
  const bool faulted = args.has("faults");
  FDLSP_REQUIRE(faulted || !args.has("reliable"),
                "--reliable needs --faults; replay ignores it otherwise");
  FDLSP_REQUIRE(faulted || args.get_int("distributed", 0) != 0 ||
                    !args.has("shards"),
                "--shards needs a distributed engine (--distributed=1 or "
                "--faults); replay ignores it otherwise");
}

}  // namespace fdlsp
