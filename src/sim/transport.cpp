#include "sim/transport.h"

#include <utility>

#include "support/check.h"
#include "support/rng.h"

namespace fdlsp {

namespace {

// Frame payload layout: [checksum, seq, inner_round, orig_tag, payload...].
// The async wrapper has no rounds and stores 0 in the inner_round slot.
constexpr std::size_t kHeaderWords = 4;

// Ack and heartbeat payload layout: [checksum, cumulative_ack].
constexpr std::size_t kControlWords = 2;

/// Checksum over a wire message's payload past the checksum slot, keyed by
/// the directed channel so a frame cannot be mistaken for one from another
/// peer. Corruption flips exactly one payload word (sim/fault.h), which
/// this detects with overwhelming probability.
std::int64_t wire_checksum(NodeId from, NodeId to, const std::int64_t* words,
                           std::size_t count) {
  std::uint64_t state = 0x72656c6961626c65ULL ^
                        ((static_cast<std::uint64_t>(from) << 32) |
                         static_cast<std::uint64_t>(to));
  std::uint64_t h = splitmix64(state);
  for (std::size_t i = 0; i < count; ++i) {
    state ^= h ^ static_cast<std::uint64_t>(words[i]);
    h = splitmix64(state);
  }
  return static_cast<std::int64_t>(h >> 1);
}

void seal(Message& message, NodeId to) {
  message.data[0] = wire_checksum(message.from, to, message.data.data() + 1,
                                  message.data.size() - 1);
}

}  // namespace

void make_frame_into(Message& frame, NodeId from, NodeId to, std::int64_t seq,
                     std::int64_t inner_round, const Message& original) {
  frame.from = from;
  frame.tag = kReliableFrameTag;
  frame.data.clear();
  frame.data.reserve(kHeaderWords + original.data.size());
  frame.data.push_back(0);  // checksum slot
  frame.data.push_back(seq);
  frame.data.push_back(inner_round);
  frame.data.push_back(original.tag);
  frame.data.insert(frame.data.end(), original.data.begin(),
                    original.data.end());
  seal(frame, to);
}

void unframe_into(Message& original, const Message& frame) {
  original.from = frame.from;
  original.tag = static_cast<std::int32_t>(frame.data[3]);
  original.data.assign(frame.data.begin() +
                           static_cast<std::ptrdiff_t>(kHeaderWords),
                       frame.data.end());
}

Message make_control(std::int32_t tag, NodeId from, NodeId to,
                     std::int64_t cumulative) {
  Message control;
  control.from = from;
  control.tag = tag;
  control.data = {0, cumulative};
  seal(control, to);
  return control;
}

bool wire_intact(NodeId self, const Message& message) {
  const bool frame = message.tag == kReliableFrameTag;
  FDLSP_REQUIRE(frame || message.tag == kReliableAckTag ||
                    message.tag == kReliableHeartbeatTag,
                "unexpected wire tag under reliable wrapper");
  FDLSP_REQUIRE(frame ? message.data.size() >= kHeaderWords
                      : message.data.size() == kControlWords,
                "reliable wire message malformed");
  return message.data[0] == wire_checksum(message.from, self,
                                          message.data.data() + 1,
                                          message.data.size() - 1);
}

TransportBudgets transport_budgets(const FaultSpec& spec) {
  TransportBudgets budgets;
  budgets.one_way = static_cast<std::size_t>(spec.max_losses_per_channel);
  if (spec.burst_rate > 0.0)
    budgets.one_way += static_cast<std::size_t>(spec.burst_cap);
  if (spec.link_down_fraction > 0.0)
    budgets.stall += static_cast<std::size_t>(spec.link_down_duration) + 2;
  if (spec.region_count > 0)
    budgets.stall += static_cast<std::size_t>(
                         static_cast<double>(spec.region_count) *
                         spec.region_duration) +
                     2;
  // A live peer answers every attempt that the loss budgets do not eat, so
  // failed attempts past the *round-trip* budget cannot be explained by
  // bounded loss alone — only by a down window or a dead peer. Probing must
  // outlast the longest legitimate stall plus the loss budget before the
  // verdict hardens to dead.
  const std::size_t round_trip = 2 * budgets.one_way;
  budgets.suspect_after = round_trip + 4;
  budgets.probe_budget = budgets.stall / kProbeInterval + round_trip + 4;
  return budgets;
}

PeerStep TransportPeer::on_deadline(const TransportBudgets& budgets,
                                    TransportStats& stats) {
  if (health_ == PeerHealth::kDead) return PeerStep::kNone;
  if (health_ == PeerHealth::kSuspected) {
    if (probes_sent_ >= budgets.probe_budget) {
      // Probing outlasted every finite outage the spec allows plus the loss
      // budget — the peer is dead. Drop its traffic so the run can quiesce;
      // the inner algorithms degrade as under a crash.
      health_ = PeerHealth::kDead;
      stats.abandoned += pending_.size() + parked_.size();
      pending_.clear();
      parked_.clear();
      return PeerStep::kNone;
    }
    ++probes_sent_;
    ++stats.probes;
    return PeerStep::kProbe;
  }
  if (pending_.empty()) return PeerStep::kNone;
  ++fails_;
  if (fails_ > budgets.suspect_after) {
    // Bounded loss alone cannot explain this much silence: suspect the
    // peer, shelve its data, and fall back to heartbeat probing.
    health_ = PeerHealth::kSuspected;
    ever_suspected_ = true;
    ++stats.suspicions;
    parked_ = std::move(pending_);
    pending_.clear();
    probes_sent_ = 1;
    ++stats.probes;
    return PeerStep::kSuspect;
  }
  for (PendingFrame& frame : pending_) frame.retransmitted = true;
  stats.retransmits += pending_.size();
  return PeerStep::kRetransmit;
}

}  // namespace fdlsp
