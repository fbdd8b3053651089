// Equivalence tests for the parallel partitioned refresh pipeline: with any
// worker count and batch size, the differential executor must emit exactly
// the sequential executor's message stream (the merge pass runs the one
// true Figure 3/7 state machine, so this is byte-for-byte equality), and
// ENTRY_BATCH coalescing must be pure transport.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/random.h"
#include "common/thread_pool.h"
#include "expr/parser.h"
#include "snapshot/differential_refresh.h"
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

/// One independent base site. Two harnesses driven with the same seeds
/// stay in perfect lockstep (storage, addresses, oracle), so a sequential
/// refresh of one and a parallel refresh of the other see identical
/// tables.
struct Harness {
  SnapshotSystem sys;
  BaseTable* base = nullptr;
  std::vector<Address> live;

  void Create() {
    auto b = sys.CreateBaseTable("emp", EmpSchema());
    ASSERT_TRUE(b.ok());
    base = *b;
  }

  void Populate(uint64_t seed, int rows) {
    Random rng(seed);
    for (int i = 0; i < rows; ++i) {
      auto a = base->Insert(
          Row("e" + std::to_string(i), int64_t(rng.Uniform(30))));
      ASSERT_TRUE(a.ok());
      live.push_back(*a);
    }
  }

  void Mutate(uint64_t seed, int ops) {
    Random rng(seed);
    for (int op = 0; op < ops; ++op) {
      const int kind = static_cast<int>(rng.Uniform(3));
      const int64_t salary = static_cast<int64_t>(rng.Uniform(30));
      if (kind == 0 || live.empty()) {
        auto a = base->Insert(Row("n" + std::to_string(op), salary));
        ASSERT_TRUE(a.ok());
        live.push_back(*a);
      } else if (kind == 1) {
        ASSERT_TRUE(base->Update(live[rng.Uniform(live.size())],
                                 Row("u" + std::to_string(op), salary))
                        .ok());
      } else {
        const size_t idx = rng.Uniform(live.size());
        ASSERT_TRUE(base->Delete(live[idx]).ok());
        live.erase(live.begin() + idx);
      }
    }
  }
};

SnapshotDescriptor MakeDesc(SnapshotId id, const std::string& predicate,
                            bool anchor = false) {
  SnapshotDescriptor desc;
  desc.id = id;
  desc.name = "snap" + std::to_string(id);
  auto restriction = ParsePredicate(predicate);
  EXPECT_TRUE(restriction.ok()) << predicate;
  if (restriction.ok()) desc.restriction = *restriction;
  desc.restriction_text = predicate;
  desc.projection = {"Name", "Salary"};
  desc.anchor_optimization = anchor;
  return desc;
}

struct RunResult {
  Status status = Status::OK();
  std::vector<Message> messages;
  std::vector<RefreshStats> stats;
  ChannelStats traffic;
};

/// Runs one group refresh directly against the executor, draining the wire
/// into `messages` and advancing `snap_times` from the END_OF_REFRESH
/// markers so rounds chain like facade refreshes.
RunResult RunGroup(Harness* h, std::vector<SnapshotDescriptor>* descs,
                   std::vector<Timestamp>* snap_times,
                   const RefreshExecution& exec) {
  RunResult out;
  Channel channel;
  out.stats.resize(descs->size());
  std::vector<GroupRefreshMember> members;
  members.reserve(descs->size());
  for (size_t i = 0; i < descs->size(); ++i) {
    members.push_back(
        {&(*descs)[i], (*snap_times)[i], &out.stats[i], &channel});
  }
  out.status = ExecuteGroupDifferentialRefresh(
      h->base, *h->base->OpenEpoch(), &members, nullptr, exec);
  while (channel.HasPending()) {
    auto m = channel.Receive();
    if (!m.ok()) {
      out.status = m.status();
      break;
    }
    if (m->type == MessageType::kEndOfRefresh) {
      for (size_t i = 0; i < descs->size(); ++i) {
        if ((*descs)[i].id == m->snapshot_id) {
          (*snap_times)[i] = m->timestamp;
        }
      }
    }
    out.messages.push_back(std::move(*m));
  }
  out.traffic = channel.stats();
  return out;
}

void ExpectSameStream(const RunResult& a, const RunResult& b) {
  ASSERT_TRUE(a.status.ok()) << a.status.ToString();
  ASSERT_TRUE(b.status.ok()) << b.status.ToString();
  ASSERT_EQ(a.messages.size(), b.messages.size());
  for (size_t i = 0; i < a.messages.size(); ++i) {
    ASSERT_TRUE(a.messages[i] == b.messages[i])
        << "message " << i << ": " << a.messages[i].ToString() << " vs "
        << b.messages[i].ToString();
  }
  ASSERT_EQ(a.stats.size(), b.stats.size());
  for (size_t i = 0; i < a.stats.size(); ++i) {
    EXPECT_EQ(a.stats[i].ToString(), b.stats[i].ToString()) << "member " << i;
  }
  EXPECT_EQ(a.traffic.messages, b.traffic.messages);
  EXPECT_EQ(a.traffic.entry_messages, b.traffic.entry_messages);
  EXPECT_EQ(a.traffic.delete_messages, b.traffic.delete_messages);
  EXPECT_EQ(a.traffic.control_messages, b.traffic.control_messages);
  EXPECT_EQ(a.traffic.batched_entries, b.traffic.batched_entries);
  EXPECT_EQ(a.traffic.payload_bytes, b.traffic.payload_bytes);
  EXPECT_EQ(a.traffic.wire_bytes, b.traffic.wire_bytes);
  EXPECT_EQ(a.traffic.frames, b.traffic.frames);
}

std::vector<SnapshotDescriptor> ThreeWayDescs() {
  std::vector<SnapshotDescriptor> descs;
  descs.push_back(MakeDesc(1, "Salary < 10"));
  descs.push_back(MakeDesc(2, "Salary >= 10 AND Salary < 20"));
  // One member with the anchor optimization: payload-free entries must
  // survive the parallel extraction and batching unchanged.
  descs.push_back(MakeDesc(3, "Salary >= 5", /*anchor=*/true));
  return descs;
}

TEST(ParallelRefreshTest, StreamIdenticalToSequentialOnRandomizedWorkload) {
  Harness seq;
  Harness par;
  seq.Create();
  par.Create();
  seq.Populate(11, 2500);  // multi-page: dozens of 4 KiB pages
  par.Populate(11, 2500);

  auto seq_descs = ThreeWayDescs();
  auto par_descs = ThreeWayDescs();
  std::vector<Timestamp> seq_times(3, kNullTimestamp);
  std::vector<Timestamp> par_times(3, kNullTimestamp);

  ThreadPool pool(4);
  RefreshExecution parallel{4, &pool, 1};

  // Initial population refresh, then churn rounds with inserts, updates,
  // and deletes (the deletes manufacture PrevAddr anomalies that can land
  // on partition boundaries).
  ExpectSameStream(RunGroup(&seq, &seq_descs, &seq_times, {}),
                   RunGroup(&par, &par_descs, &par_times, parallel));
  for (uint64_t round = 0; round < 4; ++round) {
    seq.Mutate(round * 31 + 5, 250);
    par.Mutate(round * 31 + 5, 250);
    ExpectSameStream(RunGroup(&seq, &seq_descs, &seq_times, {}),
                     RunGroup(&par, &par_descs, &par_times, parallel));
    ASSERT_EQ(seq_times, par_times);
  }
}

TEST(ParallelRefreshTest, BatchingIdenticalAcrossSequentialAndParallel) {
  Harness seq;
  Harness par;
  seq.Create();
  par.Create();
  seq.Populate(23, 1500);
  par.Populate(23, 1500);

  auto seq_descs = ThreeWayDescs();
  auto par_descs = ThreeWayDescs();
  std::vector<Timestamp> seq_times(3, kNullTimestamp);
  std::vector<Timestamp> par_times(3, kNullTimestamp);

  ThreadPool pool(4);
  RefreshExecution seq_batched{1, nullptr, 8};
  RefreshExecution par_batched{4, &pool, 8};

  RunResult a = RunGroup(&seq, &seq_descs, &seq_times, seq_batched);
  RunResult b = RunGroup(&par, &par_descs, &par_times, par_batched);
  ExpectSameStream(a, b);
  // The bulk initial refresh must actually have coalesced.
  EXPECT_GT(a.traffic.batched_entries, 0u);
  bool saw_batch = false;
  for (const Message& m : a.messages) {
    if (m.type == MessageType::kEntryBatch) saw_batch = true;
  }
  EXPECT_TRUE(saw_batch);
}

TEST(ParallelRefreshTest, BatchedStreamExpandsToUnbatchedStream) {
  Harness plain;
  Harness batched;
  plain.Create();
  batched.Create();
  plain.Populate(41, 800);
  batched.Populate(41, 800);
  plain.Mutate(42, 100);
  batched.Mutate(42, 100);

  // Single member: the per-snapshot order guarantee becomes a global one,
  // so unpacking every ENTRY_BATCH must reproduce the unbatched wire
  // exactly.
  std::vector<SnapshotDescriptor> plain_descs{MakeDesc(1, "Salary < 20")};
  std::vector<SnapshotDescriptor> batched_descs{MakeDesc(1, "Salary < 20")};
  std::vector<Timestamp> plain_times(1, kNullTimestamp);
  std::vector<Timestamp> batched_times(1, kNullTimestamp);

  RunResult a = RunGroup(&plain, &plain_descs, &plain_times, {});
  RunResult b =
      RunGroup(&batched, &batched_descs, &batched_times, {1, nullptr, 16});
  ASSERT_TRUE(a.status.ok());
  ASSERT_TRUE(b.status.ok());
  EXPECT_LT(b.messages.size(), a.messages.size());

  std::vector<Message> expanded;
  for (const Message& m : b.messages) {
    if (m.type == MessageType::kEntryBatch) {
      auto entries = UnpackEntryBatch(m);
      ASSERT_TRUE(entries.ok());
      for (Message& e : *entries) expanded.push_back(std::move(e));
    } else {
      expanded.push_back(m);
    }
  }
  ASSERT_EQ(expanded.size(), a.messages.size());
  for (size_t i = 0; i < expanded.size(); ++i) {
    EXPECT_TRUE(expanded[i] == a.messages[i]) << "message " << i;
  }
  // Accounting invariant: pre-batching entry count is recoverable.
  uint64_t batches = 0;
  for (const Message& m : b.messages) {
    if (m.type == MessageType::kEntryBatch) ++batches;
  }
  EXPECT_EQ((b.traffic.entry_messages - batches) + b.traffic.batched_entries,
            a.traffic.entry_messages);
}

TEST(ParallelRefreshTest, EmptyAndTinyTablesMatchSequential) {
  ThreadPool pool(8);
  RefreshExecution parallel{8, &pool, 4};

  // Empty table: partitioning yields nothing; both paths send only the
  // end-of-refresh markers.
  {
    Harness seq, par;
    seq.Create();
    par.Create();
    auto sd = ThreeWayDescs();
    auto pd = ThreeWayDescs();
    std::vector<Timestamp> st(3, kNullTimestamp), pt(3, kNullTimestamp);
    RunResult a = RunGroup(&seq, &sd, &st, {1, nullptr, 4});
    RunResult b = RunGroup(&par, &pd, &pt, parallel);
    ExpectSameStream(a, b);
    EXPECT_EQ(a.traffic.control_messages, 3u);
  }
  // More workers than pages: partitions degrade to one page each.
  {
    Harness seq, par;
    seq.Create();
    par.Create();
    seq.Populate(5, 40);
    par.Populate(5, 40);
    auto sd = ThreeWayDescs();
    auto pd = ThreeWayDescs();
    std::vector<Timestamp> st(3, kNullTimestamp), pt(3, kNullTimestamp);
    ExpectSameStream(RunGroup(&seq, &sd, &st, {1, nullptr, 4}),
                     RunGroup(&par, &pd, &pt, parallel));
  }
}

TEST(ParallelRefreshTest, ParallelWithoutPoolIsRejected) {
  Harness h;
  h.Create();
  h.Populate(3, 10);
  auto descs = ThreeWayDescs();
  std::vector<Timestamp> times(3, kNullTimestamp);
  RunResult r = RunGroup(&h, &descs, &times, {4, nullptr, 1});
  EXPECT_TRUE(r.status.IsInvalidArgument());
}

/// Facade-level coverage: group refresh through SnapshotSystem with both
/// knobs on stays faithful and meters the batching.
TEST(ParallelRefreshTest, SystemGroupRefreshUnderBatchingStaysFaithful) {
  SnapshotSystemOptions options;
  options.refresh_workers = 4;
  options.refresh_batch_size = 8;
  SnapshotSystem sys(options);
  auto base = sys.CreateBaseTable("emp", EmpSchema());
  ASSERT_TRUE(base.ok());
  Random rng(7);
  std::vector<Address> live;
  for (int i = 0; i < 400; ++i) {
    auto a = (*base)->Insert(
        Row("e" + std::to_string(i), int64_t(rng.Uniform(30))));
    ASSERT_TRUE(a.ok());
    live.push_back(*a);
  }
  ASSERT_TRUE(sys.CreateSnapshot("low", "emp", "Salary < 10").ok());
  ASSERT_TRUE(sys.CreateSnapshot("high", "emp", "Salary >= 10").ok());

  auto results = sys.RefreshGroup({"low", "high"});
  ASSERT_TRUE(results.ok()) << results.status().ToString();
  uint64_t batched = 0;
  for (const auto& [name, stats] : *results) {
    batched += stats.traffic.batched_entries;
  }
  EXPECT_GT(batched, 0u);

  for (uint64_t round = 0; round < 3; ++round) {
    for (int op = 0; op < 60; ++op) {
      const int kind = static_cast<int>(rng.Uniform(3));
      const int64_t salary = static_cast<int64_t>(rng.Uniform(30));
      if (kind == 0 || live.empty()) {
        auto a = (*base)->Insert(Row("n", salary));
        ASSERT_TRUE(a.ok());
        live.push_back(*a);
      } else if (kind == 1) {
        ASSERT_TRUE(
            (*base)->Update(live[rng.Uniform(live.size())], Row("u", salary))
                .ok());
      } else {
        const size_t idx = rng.Uniform(live.size());
        ASSERT_TRUE((*base)->Delete(live[idx]).ok());
        live.erase(live.begin() + idx);
      }
    }
    ASSERT_TRUE(sys.RefreshGroup({"low", "high"}).ok());
    for (const std::string name : {"low", "high"}) {
      auto snap = sys.GetSnapshot(name);
      ASSERT_TRUE(snap.ok());
      auto actual = (*snap)->Contents();
      ASSERT_TRUE(actual.ok());
      auto expected = sys.ExpectedContents(name);
      ASSERT_TRUE(expected.ok());
      ASSERT_EQ(actual->size(), expected->size()) << name;
      for (const auto& [addr, row] : *expected) {
        ASSERT_TRUE(actual->contains(addr)) << name;
        EXPECT_TRUE(actual->at(addr).Equals(row)) << name;
      }
      ASSERT_TRUE((*snap)->ValidateIndex().ok());
    }
  }
}

}  // namespace
}  // namespace snapdiff
