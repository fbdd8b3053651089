// The refresh core's session lifetime, seen through the local entry points.
// Refresh and RefreshGroup open their sessions in the same registry the
// serve path uses; every exit must leave no shared table lock and no live
// session behind (ack on success, eviction on failure), and the attempts of
// one Refresh call must share one session and one epoch cut.

#include <gtest/gtest.h>

#include "snapshot/snapshot_manager.h"

namespace snapdiff {
namespace {

Schema EmpSchema() {
  return Schema({{"Name", TypeId::kString, false},
                 {"Salary", TypeId::kInt64, false}});
}

Tuple Row(std::string name, int64_t salary) {
  return Tuple({Value::String(std::move(name)), Value::Int64(salary)});
}

void ExpectFaithful(SnapshotSystem* sys, const std::string& name) {
  auto snap = sys->GetSnapshot(name);
  ASSERT_TRUE(snap.ok());
  auto actual = (*snap)->Contents();
  ASSERT_TRUE(actual.ok());
  auto expected = sys->ExpectedContents(name);
  ASSERT_TRUE(expected.ok());
  ASSERT_EQ(actual->size(), expected->size()) << name;
  for (const auto& [addr, row] : *expected) {
    ASSERT_TRUE(actual->contains(addr)) << name;
    EXPECT_TRUE(actual->at(addr).Equals(row)) << name;
  }
}

class RefreshCoreTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto base = sys_.CreateBaseTable("emp", EmpSchema());
    ASSERT_TRUE(base.ok());
    base_ = *base;
    for (int i = 0; i < 60; ++i) {
      auto addr = base_->Insert(Row("e" + std::to_string(i), i % 20));
      ASSERT_TRUE(addr.ok());
      addrs_.push_back(*addr);
    }
    ASSERT_TRUE(sys_.CreateSnapshot("low", "emp", "Salary < 10").ok());
    ASSERT_TRUE(sys_.CreateSnapshot("high", "emp", "Salary >= 10").ok());
  }

  /// Nothing of a finished call may outlive it: no shared lock on the base
  /// table, no live session (and so no pinned epoch).
  void ExpectNothingHeld() {
    EXPECT_FALSE(sys_.lock_manager()->IsLocked(base_->info()->id));
    EXPECT_EQ(sys_.live_sessions(), 0u);
  }

  /// Touches a few rows of both snapshots' ranges (same-size rows, so every
  /// update stays in place).
  void Churn(int round) {
    for (size_t i = static_cast<size_t>(round); i < addrs_.size(); i += 7) {
      ASSERT_TRUE(
          base_->Update(addrs_[i], Row("u" + std::to_string(i % 10),
                                       static_cast<int64_t>((i + round) % 20)))
              .ok());
    }
  }

  SnapshotSystem sys_;
  BaseTable* base_ = nullptr;
  std::vector<Address> addrs_;
};

TEST_F(RefreshCoreTest, RefreshLeavesNothingHeldOnSuccessAndOutOfRetries) {
  ASSERT_TRUE(sys_.Refresh(RefreshRequest::For("low")).ok());
  ExpectNothingHeld();
  ExpectFaithful(&sys_, "low");

  Churn(1);
  RefreshRequest req = RefreshRequest::For("low");
  req.fault = FaultPlan::PartitionNow();
  req.retry.max_retries = 1;
  auto failed = sys_.Refresh(req);
  ASSERT_FALSE(failed.ok());
  EXPECT_TRUE(failed.status().IsUnavailable()) << failed.status().ToString();
  ExpectNothingHeld();

  auto next = sys_.Refresh(RefreshRequest::For("low"));
  ASSERT_TRUE(next.ok()) << next.status().ToString();
  ExpectNothingHeld();
  ExpectFaithful(&sys_, "low");
}

TEST_F(RefreshCoreTest, RefreshOverrideAndFailureWithoutRetriesReleaseToo) {
  // A lost END (every message dropped) surfaces with retries disabled.
  ASSERT_TRUE(sys_.Refresh(RefreshRequest::For("high")).ok());
  Churn(2);
  RefreshRequest req = RefreshRequest::For("high");
  req.fault = FaultPlan::DropEvery(1);
  ASSERT_FALSE(sys_.Refresh(req).ok());
  ExpectNothingHeld();

  RefreshRequest full = RefreshRequest::For("high");
  full.method = RefreshMethod::kFull;
  ASSERT_TRUE(sys_.Refresh(full).ok());
  ExpectNothingHeld();
  ExpectFaithful(&sys_, "high");
}

TEST_F(RefreshCoreTest, GroupLeavesNothingHeldOnSuccessAndFailure) {
  auto first = sys_.RefreshGroup({"low", "high"});
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  ExpectNothingHeld();
  ExpectFaithful(&sys_, "low");
  ExpectFaithful(&sys_, "high");

  // The link dies before the first message: every member session was
  // opened, none can complete.
  Churn(3);
  sys_.SetPartitioned(true);
  auto partitioned = sys_.RefreshGroup({"low", "high"});
  ASSERT_FALSE(partitioned.ok());
  ExpectNothingHeld();
  sys_.SetPartitioned(false);

  // Lossy delivery: the scan completes but some member's END never
  // applies. Members acknowledged before the failure are released by
  // their ack, the rest by eviction.
  sys_.data_channel()->Arm(FaultPlan::DropEvery(2));
  auto lossy = sys_.RefreshGroup({"low", "high"});
  sys_.data_channel()->Heal();
  ASSERT_FALSE(lossy.ok());
  EXPECT_TRUE(lossy.status().IsUnavailable()) << lossy.status().ToString();
  ExpectNothingHeld();

  auto again = sys_.RefreshGroup({"low", "high"});
  ASSERT_TRUE(again.ok()) << again.status().ToString();
  ExpectNothingHeld();
  ExpectFaithful(&sys_, "low");
  ExpectFaithful(&sys_, "high");
}

TEST_F(RefreshCoreTest, RetriesShareOneSessionAndOneCut) {
  ASSERT_TRUE(sys_.Refresh(RefreshRequest::For("low")).ok());
  // Row 3 (Salary 3) changes before the refresh, so the refresh must ship
  // it; the hook changes it again right after the cut.
  const Address row = addrs_[3];
  ASSERT_TRUE(base_->Update(row, Row("e3", 6)).ok());

  int hook_calls = 0;
  RefreshRequest req = RefreshRequest::For("low");
  req.fault = FaultPlan::PartitionNow().WithHealAfter(1);
  req.retry.max_retries = 2;
  req.on_epoch_open = [&] {
    ++hook_calls;
    ASSERT_TRUE(base_->Update(row, Row("e3", 7)).ok());
  };
  auto report = sys_.Refresh(req);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->attempts, 2u);
  // The retry RESUMEd the first attempt's session: no second epoch opened,
  // and the replica holds the row as of the first (and only) cut.
  EXPECT_EQ(hook_calls, 1);
  ExpectNothingHeld();
  auto snap = sys_.GetSnapshot("low");
  ASSERT_TRUE(snap.ok());
  auto contents = (*snap)->Contents();
  ASSERT_TRUE(contents.ok());
  ASSERT_TRUE(contents->contains(row));
  EXPECT_TRUE(contents->at(row).Equals(Row("e3", 6)));

  // The post-cut update is newer than the new SnapTime: the next refresh
  // ships it.
  ASSERT_TRUE(sys_.Refresh(RefreshRequest::For("low")).ok());
  contents = (*snap)->Contents();
  ASSERT_TRUE(contents.ok());
  EXPECT_TRUE(contents->at(row).Equals(Row("e3", 7)));
  ExpectFaithful(&sys_, "low");
  ExpectNothingHeld();
}

}  // namespace
}  // namespace snapdiff
