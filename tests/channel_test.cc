#include "net/channel.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "net/message.h"
#include "net/refresh_session.h"

namespace snapdiff {
namespace {

TEST(MessageTest, SerializationRoundTrip) {
  const Message msgs[] = {
      MakeRefreshRequest(3, 42, "Salary < 10"),
      MakeClear(1),
      MakeEntry(2, Address::FromPageSlot(1, 2), Address::FromPageSlot(0, 5),
                "payload-bytes"),
      MakeUpsert(2, Address::FromPageSlot(9, 9), "tuple"),
      MakeDeleteMsg(4, Address::FromPageSlot(3, 3)),
      MakeDeleteRange(4, Address::FromRaw(10), Address::FromRaw(20)),
      MakeEndOfRefresh(5, Address::FromPageSlot(7, 7), 99),
      MakeResumeRefresh(6, /*session_id=*/12, /*last_applied_seq=*/40),
  };
  for (const Message& m : msgs) {
    std::string buf;
    m.SerializeTo(&buf);
    EXPECT_EQ(buf.size(), m.SerializedSize()) << m.ToString();
    std::string_view in = buf;
    auto back = Message::DeserializeFrom(&in);
    ASSERT_TRUE(back.ok()) << m.ToString();
    EXPECT_EQ(*back, m) << m.ToString();
    EXPECT_TRUE(in.empty());
  }
}

TEST(MessageTest, SessionStampSurvivesRoundTrip) {
  Message m = MakeUpsert(2, Address::FromRaw(7), "tuple");
  m.session_id = 31;
  m.seq = 4;
  std::string buf;
  m.SerializeTo(&buf);
  EXPECT_EQ(buf.size(), m.SerializedSize());
  std::string_view in = buf;
  auto back = Message::DeserializeFrom(&in);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->session_id, 31u);
  EXPECT_EQ(back->seq, 4u);
  EXPECT_EQ(*back, m);
  // Stamps participate in equality: the same payload in another session is
  // a different wire message.
  Message other = m;
  other.seq = 5;
  EXPECT_FALSE(other == m);
}

TEST(MessageTest, CorruptInputRejected) {
  std::string_view empty;
  EXPECT_TRUE(Message::DeserializeFrom(&empty).status().IsCorruption());
  std::string bad = "\x63rest-is-garbage";
  std::string_view in = bad;
  EXPECT_TRUE(Message::DeserializeFrom(&in).status().IsCorruption());
}

TEST(ChannelTest, FifoDelivery) {
  Channel ch;
  ASSERT_TRUE(ch.Send(MakeClear(1)).ok());
  ASSERT_TRUE(ch.Send(MakeDeleteMsg(1, Address::FromRaw(5))).ok());
  EXPECT_EQ(ch.pending(), 2u);
  auto m1 = ch.Receive();
  ASSERT_TRUE(m1.ok());
  EXPECT_EQ(m1->type, MessageType::kClear);
  auto m2 = ch.Receive();
  ASSERT_TRUE(m2.ok());
  EXPECT_EQ(m2->type, MessageType::kDelete);
  EXPECT_TRUE(ch.Receive().status().IsNotFound());
}

TEST(ChannelTest, StatsClassifyMessages) {
  Channel ch;
  ASSERT_TRUE(ch.Send(MakeRefreshRequest(1, 0, "")).ok());
  ASSERT_TRUE(ch.Send(MakeEntry(1, Address::FromRaw(2), Address::FromRaw(1),
                                "v")).ok());
  ASSERT_TRUE(ch.Send(MakeUpsert(1, Address::FromRaw(3), "v")).ok());
  ASSERT_TRUE(ch.Send(MakeDeleteMsg(1, Address::FromRaw(4))).ok());
  ASSERT_TRUE(
      ch.Send(MakeDeleteRange(1, Address::FromRaw(5), Address::FromRaw(6)))
          .ok());
  ASSERT_TRUE(ch.Send(MakeEndOfRefresh(1, Address::Null(), 1)).ok());

  const ChannelStats& s = ch.stats();
  EXPECT_EQ(s.messages, 6u);
  EXPECT_EQ(s.entry_messages, 2u);
  EXPECT_EQ(s.delete_messages, 2u);
  EXPECT_EQ(s.control_messages, 2u);
  EXPECT_GT(s.payload_bytes, 0u);
  EXPECT_GT(s.wire_bytes, s.payload_bytes);
}

TEST(ChannelTest, FrameBlocking) {
  ChannelOptions opts;
  opts.blocking_factor = 4;
  Channel ch(opts);
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(ch.Send(MakeUpsert(1, Address::FromRaw(i + 1), "v")).ok());
  }
  // 10 messages at 4 per frame → 3 frames.
  EXPECT_EQ(ch.stats().frames, 3u);
}

TEST(ChannelTest, EndOfRefreshFlushesFrame) {
  ChannelOptions opts;
  opts.blocking_factor = 100;
  Channel ch(opts);
  ASSERT_TRUE(ch.Send(MakeUpsert(1, Address::FromRaw(1), "v")).ok());
  ASSERT_TRUE(ch.Send(MakeEndOfRefresh(1, Address::Null(), 1)).ok());
  EXPECT_EQ(ch.stats().frames, 1u);
  // Next burst opens a new frame even though the old one had room.
  ASSERT_TRUE(ch.Send(MakeUpsert(1, Address::FromRaw(2), "v")).ok());
  EXPECT_EQ(ch.stats().frames, 2u);
}

TEST(ChannelTest, PartitionRejectsSends) {
  Channel ch;
  ch.SetPartitioned(true);
  EXPECT_TRUE(ch.Send(MakeClear(1)).IsUnavailable());
  EXPECT_EQ(ch.stats().send_failures, 1u);
  EXPECT_EQ(ch.pending(), 0u);
  ch.SetPartitioned(false);
  EXPECT_TRUE(ch.Send(MakeClear(1)).ok());
}

TEST(ChannelTest, StatsDeltaSubtraction) {
  Channel ch;
  ASSERT_TRUE(ch.Send(MakeClear(1)).ok());
  ChannelStats before = ch.stats();
  ASSERT_TRUE(ch.Send(MakeUpsert(1, Address::FromRaw(1), "xy")).ok());
  ASSERT_TRUE(ch.Send(MakeDeleteMsg(1, Address::FromRaw(2))).ok());
  ChannelStats delta = ch.stats() - before;
  EXPECT_EQ(delta.messages, 2u);
  EXPECT_EQ(delta.entry_messages, 1u);
  EXPECT_EQ(delta.delete_messages, 1u);
  EXPECT_EQ(delta.control_messages, 0u);
}

TEST(ChannelTest, PartitionAfterInjectsMidStreamLoss) {
  Channel ch;
  ch.Arm(FaultPlan::PartitionAfter(2));
  EXPECT_EQ(ch.fault_phase(), FaultPhase::kArmed);
  EXPECT_TRUE(ch.Send(MakeClear(1)).ok());
  EXPECT_TRUE(ch.Send(MakeClear(1)).ok());
  EXPECT_TRUE(ch.Send(MakeClear(1)).IsUnavailable());
  // The injected loss persists (behaves like a partition)...
  EXPECT_TRUE(ch.Send(MakeClear(1)).IsUnavailable());
  EXPECT_TRUE(ch.partitioned());
  EXPECT_EQ(ch.fault_phase(), FaultPhase::kFired);
  // ...until healed.
  ch.Heal();
  EXPECT_EQ(ch.fault_phase(), FaultPhase::kHealed);
  EXPECT_TRUE(ch.Send(MakeClear(1)).ok());
  // Already-sent messages stayed queued.
  EXPECT_EQ(ch.pending(), 3u);
}

TEST(ChannelTest, PartitionNowFailsImmediately) {
  Channel ch;
  ch.Arm(FaultPlan::PartitionNow());
  EXPECT_EQ(ch.fault_phase(), FaultPhase::kFired);
  EXPECT_TRUE(ch.Send(MakeClear(1)).IsUnavailable());
}

TEST(ChannelTest, PartitionAfterBytesFiresOnWireVolume) {
  Channel ch;
  std::string bytes;
  MakeClear(1).SerializeTo(&bytes);
  const uint64_t per_send =
      bytes.size() + ch.options().per_message_overhead_bytes;
  ch.Arm(FaultPlan::PartitionAfterBytes(2 * per_send));
  EXPECT_TRUE(ch.Send(MakeClear(1)).ok());
  EXPECT_TRUE(ch.Send(MakeClear(1)).ok());
  EXPECT_TRUE(ch.Send(MakeClear(1)).IsUnavailable());
}

TEST(ChannelTest, HealingClearsPendingInjection) {
  Channel ch;
  ch.Arm(FaultPlan::PartitionAfter(1));
  ch.Heal();  // cancels the injection before it fires
  for (int i = 0; i < 5; ++i) {
    EXPECT_TRUE(ch.Send(MakeClear(1)).ok());
  }
}

TEST(ChannelTest, SetPartitionedShimMapsOntoFaultPlan) {
  Channel ch;
  ch.SetPartitioned(true);
  EXPECT_EQ(ch.fault_phase(), FaultPhase::kFired);
  EXPECT_TRUE(ch.Send(MakeClear(1)).IsUnavailable());
  ch.SetPartitioned(false);
  EXPECT_TRUE(ch.Send(MakeClear(1)).ok());
}

TEST(ChannelTest, FiredPartitionSelfHealsAfterVirtualTicks) {
  Channel ch;
  ch.Arm(FaultPlan::PartitionAfter(0).WithHealAfter(10));
  EXPECT_EQ(ch.fault_phase(), FaultPhase::kFired);
  EXPECT_TRUE(ch.Send(MakeClear(1)).IsUnavailable());
  ch.AdvanceTime(6);
  EXPECT_TRUE(ch.partitioned());  // 6 < 10: still down
  ch.AdvanceTime(6);
  EXPECT_EQ(ch.fault_phase(), FaultPhase::kHealed);
  EXPECT_TRUE(ch.Send(MakeClear(1)).ok());
}

TEST(ChannelTest, CadenceFaultWindowExpiresAfterVirtualTicks) {
  // A drop plan never "fires"; its heal deadline counts from arming, so a
  // bounded fault window over a lossy cadence is expressible directly.
  Channel ch;
  ch.Arm(FaultPlan::DropEvery(2).WithHealAfter(5));
  ASSERT_TRUE(ch.Send(MakeClear(1)).ok());
  ASSERT_TRUE(ch.Send(MakeClear(1)).ok());  // dropped (2nd send)
  EXPECT_EQ(ch.stats().dropped_messages, 1u);
  ch.AdvanceTime(3);
  EXPECT_EQ(ch.fault_phase(), FaultPhase::kArmed);  // 3 < 5: still lossy
  ch.AdvanceTime(3);
  EXPECT_EQ(ch.fault_phase(), FaultPhase::kHealed);
  ASSERT_TRUE(ch.Send(MakeClear(1)).ok());
  ASSERT_TRUE(ch.Send(MakeClear(1)).ok());
  EXPECT_EQ(ch.stats().dropped_messages, 1u);  // cadence no longer applies
}

TEST(ChannelTest, DropEveryNthLosesMessagesSilently) {
  Channel ch;
  ch.Arm(FaultPlan::DropEvery(3));
  for (int i = 0; i < 9; ++i) {
    ASSERT_TRUE(ch.Send(MakeUpsert(1, Address::FromRaw(i + 1), "v")).ok());
  }
  // Sends 3, 6, 9 vanished: metered as transmitted, never delivered.
  EXPECT_EQ(ch.stats().messages, 9u);
  EXPECT_EQ(ch.stats().dropped_messages, 3u);
  EXPECT_EQ(ch.pending(), 6u);
}

TEST(ChannelTest, DuplicateEveryNthDeliversTwiceMetersOnce) {
  Channel ch;
  ch.Arm(FaultPlan::DuplicateEvery(2));
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(ch.Send(MakeUpsert(1, Address::FromRaw(i + 1), "v")).ok());
  }
  EXPECT_EQ(ch.stats().messages, 4u);
  EXPECT_EQ(ch.stats().duplicated_messages, 2u);
  EXPECT_EQ(ch.pending(), 6u);
  // The duplicate is byte-identical and adjacent to the original.
  auto first = ch.Receive();
  auto second = ch.Receive();
  auto third = ch.Receive();
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(second.ok());
  ASSERT_TRUE(third.ok());
  EXPECT_EQ(second->base_addr, third->base_addr);
}

TEST(ChannelTest, ReorderWindowPermutesDeliveryWithinBound) {
  Channel ch;
  ch.Arm(FaultPlan::Reorder(/*window=*/3, /*seed=*/42));
  constexpr int kSends = 32;
  for (int i = 0; i < kSends; ++i) {
    ASSERT_TRUE(ch.Send(MakeUpsert(1, Address::FromRaw(i + 1), "v")).ok());
  }
  EXPECT_GT(ch.stats().reordered_messages, 0u);
  std::vector<uint64_t> order;
  while (ch.HasPending()) {
    auto msg = ch.Receive();
    ASSERT_TRUE(msg.ok());
    order.push_back(msg->base_addr.raw());
  }
  // Nothing lost or duplicated, but the order is genuinely permuted.
  ASSERT_EQ(order.size(), static_cast<size_t>(kSends));
  std::vector<uint64_t> sorted = order;
  std::sort(sorted.begin(), sorted.end());
  bool displaced = false;
  for (int i = 0; i < kSends; ++i) {
    EXPECT_EQ(sorted[i], static_cast<uint64_t>(i + 1));
    displaced = displaced || order[i] != static_cast<uint64_t>(i + 1);
  }
  EXPECT_TRUE(displaced);
  // Identical seed, identical permutation: the fault is deterministic.
  Channel replay;
  replay.Arm(FaultPlan::Reorder(3, 42));
  for (int i = 0; i < kSends; ++i) {
    ASSERT_TRUE(
        replay.Send(MakeUpsert(1, Address::FromRaw(i + 1), "v")).ok());
  }
  for (int i = 0; i < kSends; ++i) {
    auto msg = replay.Receive();
    ASSERT_TRUE(msg.ok());
    EXPECT_EQ(msg->base_addr.raw(), order[i]) << "delivery " << i;
  }
}

TEST(ChannelTest, ComposedPlanDropsAndDuplicates) {
  Channel ch;
  ch.Arm(FaultPlan::DropEvery(4).WithDuplicateEvery(3));
  for (int i = 0; i < 12; ++i) {
    ASSERT_TRUE(ch.Send(MakeUpsert(1, Address::FromRaw(i + 1), "v")).ok());
  }
  // Sends 4, 8, 12 dropped; of the duplicate cadence 3, 6, 9, 12, send 12
  // was already dropped (drop wins), so three duplicates materialize.
  EXPECT_EQ(ch.stats().dropped_messages, 3u);
  EXPECT_EQ(ch.stats().duplicated_messages, 3u);
  EXPECT_EQ(ch.pending(), 12u - 3u + 3u);
}

TEST(ChannelStatsTest, AdditionMirrorsSubtraction) {
  ChannelStats a;
  a.messages = 5;
  a.entry_messages = 2;
  a.delete_messages = 1;
  a.control_messages = 2;
  a.payload_bytes = 100;
  a.wire_bytes = 180;
  a.frames = 2;
  a.send_failures = 1;
  ChannelStats b;
  b.messages = 3;
  b.entry_messages = 3;
  b.payload_bytes = 40;
  b.wire_bytes = 64;
  b.frames = 1;
  b.dropped_messages = 2;
  b.duplicated_messages = 1;
  b.reordered_messages = 4;

  const ChannelStats sum = a + b;
  EXPECT_EQ(sum.messages, 8u);
  EXPECT_EQ(sum.entry_messages, 5u);
  EXPECT_EQ(sum.delete_messages, 1u);
  EXPECT_EQ(sum.control_messages, 2u);
  EXPECT_EQ(sum.payload_bytes, 140u);
  EXPECT_EQ(sum.wire_bytes, 244u);
  EXPECT_EQ(sum.frames, 3u);
  EXPECT_EQ(sum.send_failures, 1u);
  EXPECT_EQ(sum.dropped_messages, 2u);
  EXPECT_EQ(sum.duplicated_messages, 1u);
  EXPECT_EQ(sum.reordered_messages, 4u);

  // (a + b) - b == a, field for field.
  const ChannelStats back = sum - b;
  EXPECT_EQ(back.messages, a.messages);
  EXPECT_EQ(back.entry_messages, a.entry_messages);
  EXPECT_EQ(back.delete_messages, a.delete_messages);
  EXPECT_EQ(back.control_messages, a.control_messages);
  EXPECT_EQ(back.payload_bytes, a.payload_bytes);
  EXPECT_EQ(back.wire_bytes, a.wire_bytes);
  EXPECT_EQ(back.frames, a.frames);
  EXPECT_EQ(back.send_failures, a.send_failures);
  EXPECT_EQ(back.dropped_messages, a.dropped_messages);
  EXPECT_EQ(back.duplicated_messages, a.duplicated_messages);
  EXPECT_EQ(back.reordered_messages, a.reordered_messages);

  ChannelStats acc;
  acc += a;
  acc += b;
  EXPECT_EQ(acc.messages, sum.messages);
  EXPECT_EQ(acc.wire_bytes, sum.wire_bytes);
}

TEST(ChannelTest, StatsAfterMidBurstPartition) {
  ChannelOptions opts;
  opts.blocking_factor = 8;
  Channel ch(opts);
  ch.Arm(FaultPlan::PartitionAfter(3));
  ASSERT_TRUE(ch.Send(MakeUpsert(1, Address::FromRaw(1), "v")).ok());
  ASSERT_TRUE(ch.Send(MakeUpsert(1, Address::FromRaw(2), "v")).ok());
  ASSERT_TRUE(ch.Send(MakeUpsert(1, Address::FromRaw(3), "v")).ok());
  EXPECT_TRUE(ch.Send(MakeUpsert(1, Address::FromRaw(4), "v")).IsUnavailable());
  EXPECT_TRUE(ch.Send(MakeDeleteMsg(1, Address::FromRaw(5))).IsUnavailable());

  // Meters: only the delivered messages counted; every rejected send is a
  // failure, not traffic.
  const ChannelStats& s = ch.stats();
  EXPECT_EQ(s.messages, 3u);
  EXPECT_EQ(s.entry_messages, 3u);
  EXPECT_EQ(s.delete_messages, 0u);
  EXPECT_EQ(s.frames, 1u);  // burst died mid-frame
  EXPECT_EQ(s.send_failures, 2u);
  EXPECT_EQ(ch.pending(), 3u);
}

TEST(ChannelTest, ResetStatsAfterInjectedLossGivesCleanBaseline) {
  ChannelOptions opts;
  opts.blocking_factor = 4;
  Channel ch(opts);
  ch.Arm(FaultPlan::PartitionAfter(2));
  ASSERT_TRUE(ch.Send(MakeUpsert(1, Address::FromRaw(1), "v")).ok());
  ASSERT_TRUE(ch.Send(MakeUpsert(1, Address::FromRaw(2), "v")).ok());
  EXPECT_TRUE(ch.Send(MakeUpsert(1, Address::FromRaw(3), "v")).IsUnavailable());

  ch.Heal();
  ch.ResetStats();
  const ChannelStats& zero = ch.stats();
  EXPECT_EQ(zero.messages, 0u);
  EXPECT_EQ(zero.send_failures, 0u);
  EXPECT_EQ(zero.frames, 0u);

  // ResetStats closed the half-open frame, so the next burst pays a fresh
  // frame header and the meters account every frame they report.
  ASSERT_TRUE(ch.Send(MakeUpsert(1, Address::FromRaw(4), "v")).ok());
  EXPECT_EQ(ch.stats().frames, 1u);
  std::string bytes;
  MakeUpsert(1, Address::FromRaw(4), "v").SerializeTo(&bytes);
  EXPECT_EQ(ch.stats().wire_bytes,
            bytes.size() + ch.options().per_message_overhead_bytes +
                ch.options().frame_header_bytes);
  // Messages already queued before the reset are unaffected.
  EXPECT_EQ(ch.pending(), 3u);
}

TEST(ChannelTest, ResetStatsMidFrameRestartsFrameAccounting) {
  ChannelOptions opts;
  opts.blocking_factor = 10;
  Channel ch(opts);
  // Three messages into a ten-message frame: frame 1 is half open.
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(ch.Send(MakeUpsert(1, Address::FromRaw(i + 1), "v")).ok());
  }
  EXPECT_EQ(ch.stats().frames, 1u);
  ch.ResetStats();
  // Without the flush these two would ride the invisible half-open frame
  // and the meters would claim zero frames for real traffic.
  ASSERT_TRUE(ch.Send(MakeUpsert(1, Address::FromRaw(8), "v")).ok());
  ASSERT_TRUE(ch.Send(MakeUpsert(1, Address::FromRaw(9), "v")).ok());
  EXPECT_EQ(ch.stats().frames, 1u);
  EXPECT_EQ(ch.stats().messages, 2u);
}

TEST(ChannelTest, ResetStatsDisarmsPendingPlanButKeepsFiredPartition) {
  // The old FailAfterSends counter survived ResetStats invisibly, so a
  // "clean baseline" channel could still blow up n sends later. The
  // explicit lifecycle pins the contract both ways.
  Channel armed;
  armed.Arm(FaultPlan::PartitionAfter(2));
  armed.ResetStats();
  EXPECT_EQ(armed.fault_phase(), FaultPhase::kIdle);
  for (int i = 0; i < 5; ++i) {
    EXPECT_TRUE(armed.Send(MakeClear(1)).ok()) << "send " << i;
  }

  Channel fired;
  fired.Arm(FaultPlan::PartitionNow());
  fired.ResetStats();
  // A fired partition is a real outage, not a meter: it persists.
  EXPECT_EQ(fired.fault_phase(), FaultPhase::kFired);
  EXPECT_TRUE(fired.Send(MakeClear(1)).IsUnavailable());
  fired.Heal();
  EXPECT_TRUE(fired.Send(MakeClear(1)).ok());
}

TEST(ChannelTest, ArmReplacesPreviousPlan) {
  Channel ch;
  ch.Arm(FaultPlan::DropEvery(2));
  ch.Arm(FaultPlan::None());
  EXPECT_EQ(ch.fault_phase(), FaultPhase::kIdle);
  for (int i = 0; i < 6; ++i) {
    ASSERT_TRUE(ch.Send(MakeClear(1)).ok());
  }
  EXPECT_EQ(ch.stats().dropped_messages, 0u);
  EXPECT_EQ(ch.pending(), 6u);
}

TEST(RefreshSessionTest, StampsSessionAndSequence) {
  Channel ch;
  RefreshSession session(&ch, /*session_id=*/9, /*resume_after_seq=*/0);
  ASSERT_TRUE(session.Send(MakeClear(1)).ok());
  ASSERT_TRUE(session.Send(MakeUpsert(1, Address::FromRaw(2), "v")).ok());
  EXPECT_EQ(session.last_seq(), 2u);
  auto first = ch.Receive();
  auto second = ch.Receive();
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(first->session_id, 9u);
  EXPECT_EQ(first->seq, 1u);
  EXPECT_EQ(second->session_id, 9u);
  EXPECT_EQ(second->seq, 2u);
}

TEST(RefreshSessionTest, ResumeSuppressesAppliedPrefix) {
  Channel ch;
  RefreshSession session(&ch, 9, /*resume_after_seq=*/2);
  EXPECT_TRUE(session.resumed());
  EXPECT_TRUE(session.NextSuppressed());
  // Seqs 1 and 2 are already applied at the site: consumed, not sent.
  ASSERT_TRUE(session.Send(MakeClear(1)).ok());
  EXPECT_TRUE(session.NextSuppressed());
  ASSERT_TRUE(session.Send(MakeUpsert(1, Address::FromRaw(1), "v")).ok());
  EXPECT_FALSE(session.NextSuppressed());
  ASSERT_TRUE(session.Send(MakeUpsert(1, Address::FromRaw(2), "v")).ok());
  EXPECT_EQ(session.suppressed(), 2u);
  EXPECT_EQ(ch.stats().messages, 1u);
  auto delivered = ch.Receive();
  ASSERT_TRUE(delivered.ok());
  EXPECT_EQ(delivered->seq, 3u);
  EXPECT_FALSE(ch.HasPending());
}

/// A batching sender forwards its session's suppression hint only while it
/// passes messages straight through: a batch serializes ahead of the send
/// order, so at batch size > 1 it never elides.
TEST(RefreshSessionTest, BatchingSenderForwardsSuppressionOnlyUnbatched) {
  for (size_t batch : {size_t{1}, size_t{8}}) {
    Channel ch;
    RefreshSession session(&ch, 9, /*resume_after_seq=*/3);
    BatchingSender sender(&session, batch);
    std::vector<bool> hints;
    for (uint64_t i = 1; i <= 6; ++i) {
      hints.push_back(sender.NextSuppressed());
      ASSERT_TRUE(sender
                      .Send(MakeEntry(1, Address::FromRaw(i),
                                      Address::Origin(), "v"))
                      .ok());
    }
    ASSERT_TRUE(sender.Flush().ok());
    const std::vector<bool> expected =
        batch == 1 ? std::vector<bool>{true, true, true, false, false, false}
                   : std::vector<bool>(6, false);
    EXPECT_EQ(hints, expected) << "batch " << batch;
  }
}

TEST(ChannelTest, WireSurvivesRoundTrip) {
  Channel ch;
  Message original =
      MakeEntry(7, Address::FromPageSlot(2, 4), Address::FromPageSlot(1, 1),
                std::string("bin\0data", 8));
  ASSERT_TRUE(ch.Send(original).ok());
  auto received = ch.Receive();
  ASSERT_TRUE(received.ok());
  EXPECT_EQ(*received, original);
}

}  // namespace
}  // namespace snapdiff
