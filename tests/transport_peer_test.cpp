// TransportPeer unit tests (sim/transport.h), driven by hand with no engine:
// the failure detector's budget argument from DESIGN.md §15 checked
// directly against the state machine both reliable wrappers share.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "sim/fault.h"
#include "sim/transport.h"
#include "support/rng.h"

namespace fdlsp {
namespace {

/// Stamps and queues one outbound frame; returns its sequence number.
std::int64_t send(TransportPeer& peer, TransportStats& stats) {
  const std::int64_t seq = peer.stamp(stats);
  if (seq != 0) peer.queue(PendingFrame{seq, Message{}});
  return seq;
}

std::vector<std::int64_t> seqs(std::span<const PendingFrame> frames) {
  std::vector<std::int64_t> out;
  for (const PendingFrame& frame : frames) out.push_back(frame.seq);
  return out;
}

/// Fires deadlines until the peer is suspected (giving up after a bound no
/// budget reaches); returns the deadline count.
std::size_t drive_to_suspicion(TransportPeer& peer,
                               const TransportBudgets& budgets,
                               TransportStats& stats) {
  std::size_t deadlines = 1;
  while (peer.on_deadline(budgets, stats) != PeerStep::kSuspect &&
         deadlines < 1000)
    ++deadlines;
  return deadlines;
}

std::vector<FaultSpec> loss_specs() {
  std::vector<FaultSpec> specs;
  for (const std::uint64_t cap : {0u, 1u, 3u, 8u}) {
    FaultSpec spec;
    spec.max_losses_per_channel = cap;
    specs.push_back(spec);
    spec.burst_rate = 0.3;  // arms the per-edge burst budget on top
    spec.burst_cap = 5;
    specs.push_back(spec);
  }
  return specs;
}

TEST(TransportPeerTest, CodecRoundTripsAndDetectsCorruption) {
  Message original;
  original.from = 4;
  original.tag = 17;
  original.data = {5, -6, 7, 8, 9};
  Message frame;
  make_frame_into(frame, 4, 2, /*seq=*/3, /*inner_round=*/11, original);
  ASSERT_TRUE(wire_intact(2, frame));
  EXPECT_FALSE(wire_intact(5, frame));  // keyed by the directed channel
  Message restored;
  unframe_into(restored, frame);
  EXPECT_EQ(restored.from, original.from);
  EXPECT_EQ(restored.tag, original.tag);
  EXPECT_EQ(restored.data, original.data);
  for (std::size_t word = 0; word < frame.data.size(); ++word) {
    Message corrupted = frame;
    corrupted.data[word] ^= 0x40;
    EXPECT_FALSE(wire_intact(2, corrupted)) << "word " << word;
  }
  const Message ack = make_control(kReliableAckTag, 2, 4, 3);
  EXPECT_TRUE(wire_intact(4, ack));
}

// (a) With at most one_way frame losses and as many ack losses, every frame
// is acked within 2*one_way failed attempts — below the suspicion
// threshold, so a live peer is never suspected. Trial 0 front-loads every
// loss onto the first frame (the worst case); the rest scatter them.
TEST(TransportPeerTest, BoundedLossNeverSuspectsALivePeer) {
  for (const FaultSpec& spec : loss_specs()) {
    const TransportBudgets budgets = transport_budgets(spec);
    Rng rng(budgets.one_way + 1);
    for (int trial = 0; trial < 40; ++trial) {
      TransportStats stats;
      TransportPeer sender(1);
      TransportPeer receiver(0);
      std::size_t frame_losses = budgets.one_way;
      std::size_t ack_losses = budgets.one_way;
      std::size_t worst_fails = 0;
      for (int frame = 0; frame < 6; ++frame) {
        const std::int64_t seq = send(sender, stats);
        for (;;) {  // one transmission attempt of everything pending
          const bool drop_frame = trial == 0 || (rng() & 1) != 0;
          const bool drop_ack = trial == 0 || (rng() & 1) != 0;
          if (drop_frame && frame_losses > 0) {
            --frame_losses;
          } else {
            receiver.accept(seq);
            if (drop_ack && ack_losses > 0) {
              --ack_losses;
            } else {
              sender.ack(receiver.received(), stats, nullptr);
              break;
            }
          }
          ASSERT_EQ(sender.on_deadline(budgets, stats), PeerStep::kRetransmit)
              << "one_way=" << budgets.one_way << " trial " << trial;
          worst_fails = std::max(worst_fails, sender.fails());
        }
      }
      EXPECT_EQ(sender.health(), PeerHealth::kTrusted);
      EXPECT_EQ(stats.suspicions, 0u);
      EXPECT_TRUE(sender.idle());
      if (trial == 0) {
        EXPECT_EQ(worst_fails, 2 * budgets.one_way);
      }
    }
    // The threshold is finite: one more silent attempt than it allows
    // suspects the peer.
    TransportStats stats;
    TransportPeer silent(1);
    send(silent, stats);
    EXPECT_EQ(drive_to_suspicion(silent, budgets, stats),
              budgets.suspect_after + 1);
  }
}

// (b) A peer silent for a whole stall window — suspected meanwhile — is
// re-trusted before its probe budget runs out, even when the deadlines fire
// every time unit (faster than either wrapper paces them) and the loss
// budgets eat the first heartbeats and replies after the window closes.
TEST(TransportPeerTest, StalledPeerIsRetrustedBeforeProbeBudgetRunsOut) {
  std::vector<FaultSpec> specs;
  for (const double duration : {20.0, 45.0}) {
    FaultSpec churn;
    churn.link_down_fraction = 0.5;
    churn.link_down_duration = duration;
    specs.push_back(churn);
  }
  for (const std::uint64_t regions : {1u, 3u}) {
    FaultSpec outage;
    outage.region_count = regions;
    outage.region_duration = 60.0;
    outage.max_losses_per_channel = 2;
    outage.burst_rate = 0.2;
    outage.burst_cap = 3;
    specs.push_back(outage);
  }
  for (const FaultSpec& spec : specs) {
    const TransportBudgets budgets = transport_budgets(spec);
    ASSERT_GT(budgets.stall, budgets.suspect_after);
    TransportStats stats;
    TransportPeer sender(1);
    send(sender, stats);
    std::size_t frame_losses = budgets.one_way;
    std::size_t ack_losses = budgets.one_way;
    bool retrusted = false;
    for (std::size_t now = 1; !retrusted && now < 10 * budgets.stall;) {
      const PeerStep step = sender.on_deadline(budgets, stats);
      ASSERT_NE(sender.health(), PeerHealth::kDead)
          << "probe budget ran out at t=" << now << " (stall "
          << budgets.stall << ")";
      ASSERT_NE(step, PeerStep::kNone);
      if (now >= budgets.stall) {  // the window closed: only loss remains
        if (frame_losses > 0) {
          --frame_losses;
        } else if (ack_losses > 0) {
          --ack_losses;
        } else {
          retrusted = sender.ack(0, stats, nullptr);
          ASSERT_TRUE(retrusted) << "answered before the suspicion";
        }
      }
      now += sender.health() == PeerHealth::kSuspected ? kProbeInterval : 1;
    }
    EXPECT_TRUE(retrusted);
    EXPECT_EQ(sender.health(), PeerHealth::kTrusted);
    EXPECT_TRUE(sender.ever_suspected());
    EXPECT_EQ(stats.suspicions, 1u);
    EXPECT_EQ(stats.retrusts, 1u);
    EXPECT_EQ(stats.abandoned, 0u);
    EXPECT_EQ(seqs(sender.pending()), std::vector<std::int64_t>{1});
  }
}

// (c) kDead is terminal, and every pending and parked frame is counted
// abandoned exactly once, on the transition.
TEST(TransportPeerTest, DeadIsTerminalAndAbandonsEachFrameOnce) {
  FaultSpec spec;
  spec.max_losses_per_channel = 1;
  const TransportBudgets budgets = transport_budgets(spec);
  TransportStats stats;
  TransportPeer peer(3);
  send(peer, stats);
  send(peer, stats);
  drive_to_suspicion(peer, budgets, stats);
  send(peer, stats);  // parked while suspected
  EXPECT_EQ(seqs(peer.parked()), (std::vector<std::int64_t>{1, 2, 3}));
  std::size_t probes = 1;
  while (peer.on_deadline(budgets, stats) == PeerStep::kProbe && probes < 1000)
    ++probes;
  EXPECT_EQ(probes, budgets.probe_budget);
  ASSERT_EQ(peer.health(), PeerHealth::kDead);
  EXPECT_EQ(stats.abandoned, 3u);
  EXPECT_TRUE(peer.idle());

  const TransportStats settled = stats;
  for (int i = 0; i < 5; ++i)
    EXPECT_EQ(peer.on_deadline(budgets, stats), PeerStep::kNone);
  EXPECT_FALSE(peer.heard(stats));
  EXPECT_FALSE(peer.ack(3, stats, nullptr));
  EXPECT_EQ(peer.health(), PeerHealth::kDead);
  EXPECT_EQ(stats.abandoned, settled.abandoned);
  EXPECT_EQ(stats.probes, settled.probes);
  EXPECT_EQ(stats.retrusts, 0u);
}

// (d) A send to a dead peer is abandoned but still consumes its sequence
// number, so numbering stays aligned with the sender's send order.
TEST(TransportPeerTest, SendToDeadPeerIsAbandonedAndConsumesASequence) {
  FaultSpec spec;
  spec.max_losses_per_channel = 0;
  const TransportBudgets budgets = transport_budgets(spec);
  TransportStats stats;
  TransportPeer peer(2);
  send(peer, stats);
  drive_to_suspicion(peer, budgets, stats);
  for (int i = 0; i < 1000 && peer.health() != PeerHealth::kDead; ++i)
    peer.on_deadline(budgets, stats);
  ASSERT_EQ(stats.abandoned, 1u);
  const std::int64_t before = peer.next_seq();
  EXPECT_EQ(peer.stamp(stats), 0);
  EXPECT_EQ(peer.next_seq(), before + 1);
  EXPECT_EQ(stats.abandoned, 2u);
  EXPECT_TRUE(peer.idle());
}

// (e) A re-trust resumes the parked frames in sequence order, minus every
// frame the re-trusting ack already covers — from pending and parked alike.
TEST(TransportPeerTest, RetrustResumesParkedFramesInOrderMinusAcked) {
  FaultSpec spec;
  spec.max_losses_per_channel = 2;
  const TransportBudgets budgets = transport_budgets(spec);
  TransportStats stats;
  TransportPeer peer(5);
  for (int i = 0; i < 4; ++i) send(peer, stats);
  drive_to_suspicion(peer, budgets, stats);
  send(peer, stats);
  send(peer, stats);
  ASSERT_EQ(seqs(peer.parked()), (std::vector<std::int64_t>{1, 2, 3, 4, 5, 6}));

  std::vector<Message> recycled;
  EXPECT_TRUE(peer.ack(3, stats, &recycled));
  EXPECT_EQ(peer.health(), PeerHealth::kTrusted);
  EXPECT_EQ(stats.retrusts, 1u);
  EXPECT_EQ(recycled.size(), 3u);  // the acked frames' buffers come back
  EXPECT_TRUE(peer.parked().empty());
  EXPECT_EQ(seqs(peer.pending()), (std::vector<std::int64_t>{4, 5, 6}));
  for (const PendingFrame& frame : peer.pending())
    EXPECT_TRUE(frame.retransmitted);  // Karn: no RTT sample from these

  // A re-trust by a message that acks nothing new resumes everything.
  TransportPeer other(6);
  send(other, stats);
  send(other, stats);
  drive_to_suspicion(other, budgets, stats);
  EXPECT_TRUE(other.heard(stats));
  EXPECT_EQ(seqs(other.pending()), (std::vector<std::int64_t>{1, 2}));
}

}  // namespace
}  // namespace fdlsp
