// Soak oracles: the long-horizon invariants of the churn pipeline.
//
// A soak run is correct as a *stream*, not as a single schedule, so the
// oracles attach to the driver's per-event observer:
//
//   * feasibility — the schedule is complete and distance-2 feasible after
//     every event. Checked locally per event (only the recolored arcs can
//     break it) with periodic whole-graph sweeps, which also byte-compare
//     the incrementally maintained ConflictIndex against a fresh build.
//   * locality — an unfaulted repair event only recolors arcs inside the
//     distance-2 ball of the event's touched nodes (the paper's localized
//     repair-cost argument as a checkable safety property). Recomputes,
//     faulted runs, and crash-recovery fallbacks are exempt by design.
//   * drift — the color span never exceeds the drift band × the
//     instance-tight Lemma-6 bound of the *current* topology, so a schedule
//     maintained over 10^5 events is as good as one computed fresh. The
//     oracle band can be set tighter than the spec's own (which the driver's
//     default cost model enforces) — that is the supported way to inject a
//     violation when testing the shrink/replay pipeline itself.
//   * steady-state determinism — same spec => byte-identical event log and
//     final schedule, across engine thread counts (check_soak_determinism).
//
// A failing stream shrinks to a replayable spec (shrink_soak_case truncates
// the stream, ddmins skip-blocks, disarms event classes, and halves the
// universe) rendered as a one-line `--soak=` invocation for examples/replay.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>

#include "sim/fault.h"
#include "soak/driver.h"
#include "verify/oracles.h"
#include "verify/shrink.h"

namespace fdlsp {

class CliArgs;

/// Which long-horizon invariants to apply, and how often to pay for the
/// whole-graph passes.
struct SoakOracleOptions {
  bool check_feasibility = true;
  /// Repair events recolor only inside the distance-2 ball of the touched
  /// nodes. Applied to unfaulted repair events (recomputes, fault plans,
  /// and fallbacks are exempt).
  bool check_locality = true;
  /// Span <= band × (max conflict degree + 1). Valid under the driver's
  /// default cost model; disable for custom models that never recompute.
  bool check_drift = true;
  /// Drift band the oracle enforces; 0 means the spec's own drift_band. A
  /// band stricter than the spec's injects a violation on purpose (the
  /// driver only maintains the spec's band) — the shrink/replay pipeline
  /// tests use exactly this seam.
  double drift_band = 0.0;
  /// Whole-graph feasibility + fresh-index byte-compare every this many
  /// events (and once at the end). 0 disables the periodic sweeps.
  std::size_t full_check_stride = 64;
};

/// Outcome of an oracle-observed soak run.
struct SoakVerdict {
  bool ok = true;
  std::uint64_t failing_event = 0;  ///< event index of the first violation
  std::string failure;              ///< first failing oracle, human-readable
  SoakStats stats;                  ///< driver aggregates (latencies included)
  std::string event_log;   ///< formatted log — the byte-compared artifact
  ArcColoring final_coloring;
};

/// Runs `spec`'s whole stream with the oracles attached to the driver's
/// observer; stops at the first violation.
SoakVerdict run_soak_with_oracles(const SoakSpec& spec,
                                  const SoakOptions& driver_options = {},
                                  const SoakOracleOptions& oracle_options = {});

/// Steady-state determinism oracle: the runs described by (spec, a) and
/// (spec, b) — e.g. a serial engine vs an 8-shard one — must produce
/// byte-identical event logs and final schedules.
OracleVerdict check_soak_determinism(const SoakSpec& spec,
                                     const SoakOptions& a = {},
                                     const SoakOptions& b = {});

/// Returns true iff the failure still reproduces on `candidate`.
using SoakFailingPredicate = std::function<bool(const SoakSpec& candidate)>;

/// Result of a soak-spec shrink.
struct SoakShrinkOutcome {
  SoakSpec spec;           ///< simplest failing spec found
  std::size_t checks = 0;  ///< predicate calls spent
};

/// Minimizes a failing soak spec: binary-search the shortest failing stream
/// prefix, ddmin event indices into the skip list (pure-hash draws make a
/// skipped index vanish without renumbering the rest), disarm whole event
/// classes by zeroing their weights, then halve the node universe — each
/// stage greedy and deterministic. `still_fails` must hold on `start`.
SoakShrinkOutcome shrink_soak_case(const SoakSpec& start,
                                   const SoakFailingPredicate& still_fails,
                                   const ShrinkOptions& options = {});

/// One-line replay invocation, e.g. "--soak=seed=7,n=16,events=40,skip=3".
/// When `oracle_options` carries a band override, appends the matching
/// "--soak-band=" flag so the replayed oracle run is identical.
std::string soak_repro_command(const SoakSpec& spec,
                               const SoakOracleOptions* oracle_options =
                                   nullptr);

/// As above, plus the fault plan of a faulted distributed soak.
std::string soak_repro_command(const SoakSpec& spec, const FaultSpec& faults,
                               bool reliable,
                               const SoakOracleOptions* oracle_options =
                                   nullptr);

/// Every flag examples/replay accepts when replaying a soak stream: those
/// soak_repro_command() prints, plus --distributed, --shards and --help.
inline constexpr std::string_view kSoakReplayFlags[] = {
    "soak", "soak-band", "faults", "reliable", "distributed", "shards", "help"};

/// Checks a soak-mode replay line: every flag must be in kSoakReplayFlags,
/// --reliable needs --faults, and --shards needs a distributed engine
/// (--distributed=1, or --faults, which implies it) — replay would ignore
/// either otherwise. Raises contract_error naming the offending flag.
void require_soak_replay_flags(const CliArgs& args);

}  // namespace fdlsp
