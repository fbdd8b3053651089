// Failure injection: the WAN link dies mid-transmission. A refresh that
// fails partway may leave a prefix of its messages applied at the snapshot
// (they were already on the wire); because SnapTime only advances with the
// closing message, retrying after the link heals must always reconverge —
// for every refresh method. Also pins the recovery bugs this suite found:
// ideal's shadow and log-based's LSN may only commit after the closing
// message is sent.

#include <gtest/gtest.h>

#include "common/random.h"
#include "sim/workload.h"

namespace snapdiff {
namespace {

void ExpectFaithful(SnapshotSystem* sys, const std::string& name) {
  auto snap = sys->GetSnapshot(name);
  ASSERT_TRUE(snap.ok());
  auto actual = (*snap)->Contents();
  ASSERT_TRUE(actual.ok());
  auto expected = sys->ExpectedContents(name);
  ASSERT_TRUE(expected.ok());
  ASSERT_EQ(actual->size(), expected->size()) << name;
  for (const auto& [addr, row] : *expected) {
    ASSERT_TRUE(actual->contains(addr)) << addr.ToString();
    EXPECT_TRUE(actual->at(addr).Equals(row));
  }
}

using FailParam = std::tuple<RefreshMethod, uint64_t /*fail after*/>;

class MidStreamFailureTest : public ::testing::TestWithParam<FailParam> {};

TEST_P(MidStreamFailureTest, RetryAfterPartialTransmissionConverges) {
  const auto [method, fail_after] = GetParam();
  SnapshotSystem sys;
  WorkloadConfig wc;
  wc.table_size = 300;
  wc.seed = 42;
  auto workload = Workload::Create(&sys, "base", wc);
  ASSERT_TRUE(workload.ok());

  SnapshotOptions opts;
  opts.method = method;
  ASSERT_TRUE(sys.CreateSnapshot("snap", "base",
                                 (*workload)->RestrictionFor(0.3), opts)
                  .ok());
  ASSERT_TRUE(sys.Refresh(RefreshRequest::For("snap")).ok());
  ExpectFaithful(&sys, "snap");

  // A burst of changes, then the link dies after `fail_after` messages of
  // the refresh transmission.
  ASSERT_TRUE((*workload)->UpdateFraction(0.3).ok());
  ASSERT_TRUE((*workload)->ApplyMixedOps(60, 0.3, 0.3).ok());
  sys.data_channel()->Arm(FaultPlan::PartitionAfter(fail_after));
  auto failed = sys.Refresh(RefreshRequest::For("snap"));
  EXPECT_TRUE(failed.status().IsUnavailable())
      << failed.status().ToString();

  // Heal; the already-transmitted prefix gets delivered, then the retry
  // must reconverge exactly.
  sys.SetPartitioned(false);
  auto retried = sys.Refresh(RefreshRequest::For("snap"));
  ASSERT_TRUE(retried.ok()) << retried.status().ToString();
  ExpectFaithful(&sys, "snap");

  // And the state machine is healthy afterwards.
  ASSERT_TRUE((*workload)->UpdateFraction(0.1).ok());
  ASSERT_TRUE(sys.Refresh(RefreshRequest::For("snap")).ok());
  ExpectFaithful(&sys, "snap");
}

INSTANTIATE_TEST_SUITE_P(
    MethodsAndCutPoints, MidStreamFailureTest,
    ::testing::Combine(::testing::Values(RefreshMethod::kFull,
                                         RefreshMethod::kDifferential,
                                         RefreshMethod::kIdeal,
                                         RefreshMethod::kLogBased),
                       ::testing::Values(0u, 1u, 5u, 40u)),
    [](const ::testing::TestParamInfo<FailParam>& param_info) {
      std::string name =
          std::string(RefreshMethodToString(std::get<0>(param_info.param))) +
          "_cut" + std::to_string(std::get<1>(param_info.param));
      for (char& c : name) {
        if (c == '-') c = '_';
      }
      return name;
    });

TEST(MidStreamFailureTest, IdealShadowSurvivesLostEndMessage) {
  // Regression: the shadow must not commit when the closing message is the
  // one that failed — otherwise the delta is lost forever.
  SnapshotSystem sys;
  WorkloadConfig wc;
  wc.table_size = 100;
  wc.seed = 9;
  auto workload = Workload::Create(&sys, "base", wc);
  ASSERT_TRUE(workload.ok());
  SnapshotOptions opts;
  opts.method = RefreshMethod::kIdeal;
  ASSERT_TRUE(sys.CreateSnapshot("snap", "base",
                                 (*workload)->RestrictionFor(0.5), opts)
                  .ok());
  ASSERT_TRUE(sys.Refresh(RefreshRequest::For("snap")).ok());

  ASSERT_TRUE((*workload)->UpdateFraction(0.2).ok());
  // Count the data messages the refresh *would* send, from a dry run
  // against an identical sibling snapshot.
  SnapshotOptions dry_opts;
  dry_opts.method = RefreshMethod::kIdeal;
  ASSERT_TRUE(sys.CreateSnapshot("dry", "base",
                                 (*workload)->RestrictionFor(0.5), dry_opts)
                  .ok());
  ASSERT_TRUE(sys.Refresh(RefreshRequest::For("dry")).ok());
  auto dry2 = sys.Refresh(RefreshRequest::For("dry"));
  ASSERT_TRUE(dry2.ok());

  // Fail exactly on the END_OF_REFRESH (after all data messages).
  auto expected = sys.ExpectedContents("snap");
  ASSERT_TRUE(expected.ok());
  // The dry sibling's second refresh sent the same delta as "snap" is
  // about to, so its message count locates the closing message exactly.
  const uint64_t data = dry2->stats.traffic.messages - 1;  // minus its end marker
  sys.data_channel()->Arm(FaultPlan::PartitionAfter(data));
  auto failed = sys.Refresh(RefreshRequest::For("snap"));
  EXPECT_TRUE(failed.status().IsUnavailable());

  sys.SetPartitioned(false);
  ASSERT_TRUE(sys.Refresh(RefreshRequest::For("snap")).ok());
  ExpectFaithful(&sys, "snap");
}

// A group refresh fans one scan out to per-member sessions. Over a link
// that reorders and duplicates, with the compact wire codec on, every member
// stream must pass the same seq-ordered admission (and decode) as a
// single-snapshot refresh: duplicates drop, early arrivals wait for their
// gap, and each member converges exactly.
class GroupUnderFaultsTest : public ::testing::TestWithParam<size_t> {};

TEST_P(GroupUnderFaultsTest, ReorderedDuplicatedEncodedGroupConverges) {
  SnapshotSystemOptions options;
  options.wire_encoding = true;
  options.refresh_batch_size = GetParam();
  SnapshotSystem sys(options);
  WorkloadConfig wc;
  wc.table_size = 300;
  wc.seed = 7;
  auto workload = Workload::Create(&sys, "base", wc);
  ASSERT_TRUE(workload.ok());
  const std::vector<std::string> members = {"low", "mid", "all"};
  const double fractions[] = {0.2, 0.5, 1.0};
  for (size_t i = 0; i < members.size(); ++i) {
    ASSERT_TRUE(sys.CreateSnapshot(members[i], "base",
                                   (*workload)->RestrictionFor(fractions[i]))
                    .ok());
  }

  for (uint64_t window = 2; window <= 9; ++window) {
    if (window > 2) {
      ASSERT_TRUE((*workload)->UpdateFraction(0.2).ok());
      ASSERT_TRUE((*workload)->ApplyMixedOps(40, 0.3, 0.3).ok());
    }
    sys.data_channel()->Arm(
        FaultPlan::Reorder(window, /*seed=*/window * 31)
            .WithDuplicateEvery(3 + window % 4));
    auto group = sys.RefreshGroup(members);
    sys.data_channel()->Heal();
    ASSERT_TRUE(group.ok()) << "window " << window << ": "
                            << group.status().ToString();
    for (const std::string& name : members) ExpectFaithful(&sys, name);
  }
  EXPECT_GT(sys.data_channel()->stats().reordered_messages, 0u);
  EXPECT_GT(sys.data_channel()->stats().duplicated_messages, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Batching, GroupUnderFaultsTest, ::testing::Values(size_t{1}, size_t{4}),
    [](const ::testing::TestParamInfo<size_t>& param_info) {
      return "batch" + std::to_string(param_info.param);
    });

}  // namespace
}  // namespace snapdiff
