// Deterministic fault injection for both simulation engines.
//
// A FaultPlan is the fault-model analogue of the DelaySchedule adversary
// (sim/delay.h): every decision is a pure function of
// (seed, channel, message index) for channel faults and (seed, node) /
// (seed, edge) for node-crash and link-churn schedules, so a faulted run is
// reproducible from the spec alone and two engines with the same spec agree
// even if they post messages in different orders. The plan is installed on
// an engine through the same optional-pointer seam as SimTrace: with no
// plan installed every injection point is a single null check and the run
// is byte-identical to an unfaulted build. With one, each engine asks it
// once per posted message, at one call site: on_post runs the whole
// cascade (crash, link-down, region outage, then the channel faults).
//
// Fault classes:
//   * drop       — the k-th message on a directed channel vanishes.
//   * duplicate  — the message is delivered twice (back to back; per-channel
//                  FIFO is preserved, matching a link-layer retransmit whose
//                  ack was lost).
//   * corrupt    — one payload word (or, for empty payloads, the tag) is
//                  XOR-flipped; the payload size never changes.
//   * burst loss — a per-edge Gilbert–Elliott good/bad Markov chain,
//                  discretized per integer time step and advanced by pure
//                  (seed, edge, step) hashes: while the chain is bad,
//                  messages on either direction of the edge drop with
//                  probability `burst_loss`. Bad runs are truncated after
//                  `burst_max_run` steps and the whole edge stops bursting
//                  after `burst_cap` drops, so burst loss is bounded like
//                  every other class.
//   * PRR matrix — each edge is hashed onto one of `prr_levels` (packet
//                  reception ratios, e.g. loaded from a link-quality trace
//                  via load_prr_levels); messages drop with probability
//                  1 - PRR. PRR drops consume the shared per-channel loss
//                  cap, so they stay bounded.
//   * region outage — `region_count` hashed discs over the node positions
//                  (the UDG plan coordinates when provided, else hashed
//                  virtual unit-square coordinates) each get one finite
//                  down window; every edge with an endpoint inside a disc
//                  drops all traffic while the window is open — spatial
//                  jamming, the correlated analogue of link churn.
//   * node crash — a node fail-stops at a hashed round/time: its callbacks
//                  never run again and traffic to or from it is discarded.
//                  Recovery with state loss is modeled *between* runs by the
//                  crash-recovery workflow (verify/fault_oracles.h), which
//                  re-colors the orphaned arcs with dist_repair.
//   * link churn — an edge is down for one hashed, finite time window; both
//                  directions drop traffic while down.
//
// Bounded loss: drops and corruptions on one channel stop after
// `max_losses_per_channel` (the channel becomes lossless), burst drops per
// edge stop after `burst_cap`, and churn/outage windows are finite. An
// ack/retransmit wrapper (sim/reliable.h) can therefore guarantee delivery,
// which is what the fault-quiescence oracle exploits. The plan owns every
// per-channel fault counter (message indices, loss budgets) and the burst
// chains, so the engines keep no fault state, and the plan is an object
// with per-run state: construct a fresh plan per run — reuse silently
// changes decisions, and the engines assert against it (on_run_start) in
// debug builds. Decisions are still deterministic, because on_post hands
// out each channel's message indices in post order, so each (channel,
// message index) pair is decided exactly once, and engine query times are
// nondecreasing.
#pragma once

#include <bit>
#include <cstdint>
#include <string>
#include <vector>

#include "graph/geometry.h"
#include "graph/graph.h"
#include "graph/types.h"
#include "sim/message.h"
#include "support/check.h"

namespace fdlsp {

/// Pure-data description of a fault model. Value-comparable so shrunk fault
/// cases can be tested for fixpoints.
struct FaultSpec {
  std::uint64_t seed = 1;  ///< drives every fault decision

  double drop_rate = 0.0;       ///< P(message dropped), per posted message
  double duplicate_rate = 0.0;  ///< P(message delivered twice)
  double corrupt_rate = 0.0;    ///< P(one payload word flipped)

  /// Bounded loss: after this many drops+corruptions (i.i.d. or PRR) on one
  /// directed channel, that channel delivers everything (retransmission
  /// terminates).
  std::uint64_t max_losses_per_channel = 8;

  /// Gilbert–Elliott burst loss (armed when burst_rate > 0).
  double burst_rate = 0.0;          ///< P(good -> bad) per time step
  double burst_recover = 0.5;       ///< P(bad -> good) per time step
  double burst_loss = 1.0;          ///< P(drop | chain bad), per message
  std::uint64_t burst_max_run = 8;  ///< bad runs truncated after this many steps
  std::uint64_t burst_cap = 8;      ///< per-edge burst-drop budget

  /// Packet-reception-ratio levels (armed when non-empty); each edge is
  /// hashed onto one level and delivers with that probability. Values must
  /// lie in (0, 1].
  std::vector<double> prr_levels;

  std::uint64_t region_count = 0;  ///< hashed outage discs (armed when > 0)
  double region_radius = 0.25;     ///< disc radius in unit-square coordinates
  double region_horizon = 16.0;    ///< window starts drawn in [0, horizon)
  double region_duration = 4.0;    ///< window length (rounds / time units)

  double crash_fraction = 0.0;  ///< fraction of nodes that fail-stop
  double crash_horizon = 16.0;  ///< crash times drawn in [0, horizon)

  double link_down_fraction = 0.0;  ///< fraction of edges with a down window
  double link_down_horizon = 16.0;  ///< window starts drawn in [0, horizon)
  double link_down_duration = 4.0;  ///< window length (rounds / time units)

  /// True when at least one fault class is armed.
  bool any() const noexcept {
    return drop_rate > 0.0 || duplicate_rate > 0.0 || corrupt_rate > 0.0 ||
           burst_rate > 0.0 || !prr_levels.empty() || region_count > 0 ||
           crash_fraction > 0.0 || link_down_fraction > 0.0;
  }

  /// True when correlated loss (bursts, PRR, or region outages) is armed —
  /// the classes the adaptive transport's budgets must provision for.
  bool correlated() const noexcept {
    return burst_rate > 0.0 || !prr_levels.empty() || region_count > 0;
  }

  friend bool operator==(const FaultSpec&, const FaultSpec&) = default;
};

/// What happens to one posted message.
enum class FaultAction {
  kDeliver,    ///< delivered untouched
  kDrop,       ///< silently discarded
  kDuplicate,  ///< delivered twice
  kCorrupt,    ///< one payload word flipped, then delivered
};

/// FaultPlan::on_post's verdict on one posted message.
struct FaultDecision {
  FaultAction action;
  /// The message's index on its channel: corrupt_payload's argument for
  /// kCorrupt. 0 for a message a crash, a down link or a region outage
  /// dropped, which takes no index.
  std::uint64_t index;
};

/// Counters of the faults an engine actually injected during one run.
struct FaultStats {
  std::uint64_t dropped = 0;          ///< i.i.d. channel-fault drops
  std::uint64_t duplicated = 0;       ///< extra copies delivered
  std::uint64_t corrupted = 0;        ///< messages with a flipped word
  std::uint64_t burst_dropped = 0;    ///< drops while a burst chain was bad
  std::uint64_t prr_dropped = 0;      ///< drops charged to a PRR level
  std::uint64_t region_drops = 0;     ///< messages lost to a region outage
  std::uint64_t link_down_drops = 0;  ///< messages lost to a down link
  std::uint64_t crash_drops = 0;      ///< messages to/from a dead node

  /// Adds another run's counters (sweeps total what their runs injected).
  FaultStats& operator+=(const FaultStats& other) noexcept {
    dropped += other.dropped;
    duplicated += other.duplicated;
    corrupted += other.corrupted;
    burst_dropped += other.burst_dropped;
    prr_dropped += other.prr_dropped;
    region_drops += other.region_drops;
    link_down_drops += other.link_down_drops;
    crash_drops += other.crash_drops;
    return *this;
  }
};

/// Deterministic fault decision engine for one run. See the header comment
/// for the determinism contract; construct a fresh plan per run.
class FaultPlan {
 public:
  /// Sizes the crash/churn/burst/region schedules for `graph`. The graph
  /// must be the one the engine runs on (channel ids are its ArcIds).
  /// `positions`, when non-null with one Point per node, anchors the region
  /// outage discs to the real (UDG) layout; otherwise every node gets a
  /// hashed virtual position in the unit square.
  explicit FaultPlan(const FaultSpec& spec, const Graph& graph,
                     const std::vector<Point>* positions = nullptr);

  const FaultSpec& spec() const noexcept { return spec_; }

  /// Called by the engines at the top of run(): asserts (debug builds) that
  /// this plan has not decided messages for an earlier run — the loss
  /// counters and burst chains make reuse silently change decisions.
  void on_run_start() {
    FDLSP_ASSERT(!run_started_,
                 "FaultPlan reused across runs — construct a fresh plan");
    run_started_ = true;
  }

  /// The fate of one message posted from `from` to `to` on `channel` at
  /// engine time `now` (sync engines pass the round number) — the one
  /// fault decision both engines make per posted message. A dead endpoint,
  /// a down link or an open region outage drops it; otherwise it takes the
  /// channel's next message index and channel_action decides. Counts every
  /// drop it makes in stats(). Call once per posted message, with `now`
  /// nondecreasing across calls.
  FaultDecision on_post(ArcId channel, NodeId from, NodeId to, double now);

  /// Decision for the `message_index`-th message posted on `channel` at
  /// engine time `now` (sync engines pass the round number); on_post's
  /// last step. Stateful through the bounded-loss counters and the burst
  /// chains; call exactly once per (channel, index), indices in increasing
  /// order per channel and `now` nondecreasing across calls.
  FaultAction channel_action(ArcId channel, std::uint64_t message_index,
                             double now = 0.0);

  /// Applies the payload-size-preserving corruption for this (channel,
  /// index): XOR-flips one data word, or the tag when `data` is empty.
  void corrupt_payload(ArcId channel, std::uint64_t message_index,
                       Message& message) const;

  /// True iff this node ever fail-stops under the plan.
  bool node_crashes(NodeId v) const { return crash_time_[v] >= 0.0; }

  /// Crash time of v (sync engines compare against the round number), or a
  /// negative value when v never crashes.
  double crash_time(NodeId v) const { return crash_time_[v]; }

  /// True iff v is dead at time/round `now`.
  bool node_down(NodeId v, double now) const {
    return crash_time_[v] >= 0.0 && now >= crash_time_[v];
  }

  /// True iff the edge under `channel` is inside its down window at `now`.
  bool link_down(ArcId channel, double now) const {
    const double start = link_down_start_[channel >> 1];
    return start >= 0.0 && now >= start &&
           now < start + spec_.link_down_duration;
  }

  /// True iff the edge under `channel` sits inside a region outage disc
  /// whose window is open at `now`. Constant-time per armed region.
  bool region_down(ArcId channel, double now) const {
    if (spec_.region_count == 0) return false;
    std::uint64_t mask = region_mask_[channel >> 1];
    while (mask != 0) {
      const int r = std::countr_zero(mask);
      mask &= mask - 1;
      const double start = region_start_[static_cast<std::size_t>(r)];
      if (now >= start && now < start + spec_.region_duration) return true;
    }
    return false;
  }

  /// The PRR level assigned to the edge under `channel` (1.0 when the PRR
  /// matrix is unarmed).
  double link_prr(ArcId channel) const {
    if (spec_.prr_levels.empty()) return 1.0;
    return spec_.prr_levels[prr_level_[channel >> 1]];
  }

  /// All nodes that fail-stop under the plan, ascending.
  std::vector<NodeId> crashed_nodes() const;

  /// All edges with a down window under the plan, ascending.
  std::vector<EdgeId> churned_edges() const;

  /// All edges covered by at least one region outage disc, ascending.
  std::vector<EdgeId> region_edges() const;

  FaultStats& stats() noexcept { return stats_; }
  const FaultStats& stats() const noexcept { return stats_; }

 private:
  /// `unit_interval(hash) < rate` decided on the raw hash.
  struct HashCut {
    static HashCut of(double rate);  ///< see fault.cpp
    std::uint64_t below = 0;  ///< hashes under this pass
    bool all = false;         ///< rate >= 1: every hash passes
    bool passes(std::uint64_t hash) const noexcept {
      return all || hash < below;
    }
  };

  /// Advances the edge's Gilbert–Elliott chain to the integer step of `now`
  /// and returns true iff the chain is bad there: one hash per step walked,
  /// none for a same-step query. Pinned good once the edge's burst budget
  /// is exhausted.
  bool burst_bad(EdgeId edge, double now);

  FaultSpec spec_;
  HashCut burst_onset_;    ///< good -> bad, from burst_rate
  HashCut burst_recover_;  ///< bad -> good, from burst_recover
  std::vector<double> crash_time_;       ///< per node; < 0 == never
  std::vector<double> link_down_start_;  ///< per edge; < 0 == never
  std::vector<std::uint64_t> posts_;     ///< message indices taken per channel
  std::vector<std::uint64_t> losses_;    ///< drops+corruptions per channel
  std::vector<std::uint8_t> burst_state_;    ///< per edge; 1 == bad
  std::vector<std::int64_t> burst_step_;     ///< last chain step advanced to
  std::vector<std::uint32_t> burst_run_;     ///< current bad-run length
  std::vector<std::uint64_t> burst_drops_;   ///< burst budget consumed
  std::vector<std::uint32_t> prr_level_;     ///< per edge; index into levels
  std::vector<std::uint64_t> region_mask_;   ///< per edge; bit r == in disc r
  std::vector<double> region_start_;         ///< per region window start
  FaultStats stats_;
  bool run_started_ = false;
};

/// Compact key=value form of a spec, e.g.
///   "fseed=7,drop=0.10,dup=0.05,corrupt=0.02,cap=8,bp=0.05,crash=0.25,..."
/// Only non-default fields are printed; an all-default spec formats as "none".
/// PRR levels render colon-separated (prr=0.9:0.7:0.5). The string is the
/// value of the --faults= replay flag and round-trips through
/// parse_fault_spec.
std::string format_fault_spec(const FaultSpec& spec);

/// Parses the format_fault_spec form ("none" or comma-separated key=value
/// pairs). Unknown keys, non-numeric values, and trailing garbage raise
/// contract_error so repro typos fail loudly.
FaultSpec parse_fault_spec(const std::string& text);

/// Loads PRR levels from a link-quality trace file: whitespace-separated
/// reception ratios in (0, 1], e.g. dumped from a testbed measurement.
/// Raises contract_error on unreadable files, malformed numbers, or values
/// outside (0, 1].
std::vector<double> load_prr_levels(const std::string& path);

}  // namespace fdlsp
