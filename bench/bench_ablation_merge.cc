// Ablation A1: the empty-region algorithm's merge optimization ("empty
// regions which are separated by entries which do not satisfy the snapshot
// restriction [can] be combined before transmitting"). Compares data
// messages per refresh with merging on vs off across update activity, for
// several selectivities, on the explicit empty-region table.
//
// Usage: bench_ablation_merge [address_space] [ops_per_round]

#include <cstdio>

#include "bench_report.h"
#include "common/random.h"
#include "expr/parser.h"
#include "snapshot/empty_region_table.h"

namespace {

using namespace snapdiff;

Schema RowSchema() {
  return Schema({{"Id", TypeId::kInt64, false},
                 {"Qual", TypeId::kInt64, false}});
}

Tuple MakeRow(Random* rng, int64_t id) {
  return Tuple({Value::Int64(id),
                Value::Int64(static_cast<int64_t>(rng->Uniform(1000)))});
}

/// Builds a table, churns it, and measures one refresh with/without merge.
Status RunOne(uint64_t space, double fill, double q, size_t ops,
              uint64_t seed, uint64_t* merged_msgs, uint64_t* unmerged_msgs) {
  TimestampOracle oracle;
  EmptyRegionTable table(RowSchema(), space, &oracle);
  Random rng(seed);
  int64_t next_id = 0;
  const uint64_t rows = static_cast<uint64_t>(fill * double(space));
  for (uint64_t i = 0; i < rows; ++i) {
    RETURN_IF_ERROR(table.Insert(MakeRow(&rng, next_id++)).status());
  }
  ASSIGN_OR_RETURN(ExprPtr restriction,
                   ParsePredicate("Qual < " +
                                  std::to_string(int64_t(q * 1000))));
  // Initialize a virtual snapshot time by running one refresh to /dev/null.
  Channel init;
  RefreshStats init_stats;
  RETURN_IF_ERROR(table.Refresh(kNullTimestamp, *restriction, 1, true, &init,
                                &init_stats));
  Timestamp snap_time = kNullTimestamp;
  while (init.HasPending()) {
    ASSIGN_OR_RETURN(Message m, init.Receive());
    if (m.type == MessageType::kEndOfRefresh) snap_time = m.timestamp;
  }

  // Churn: mixed inserts/deletes/updates.
  for (size_t op = 0; op < ops; ++op) {
    const uint64_t addr = 1 + rng.Uniform(space);
    const int kind = static_cast<int>(rng.Uniform(3));
    if (kind == 0 && !table.IsOccupied(addr)) {
      RETURN_IF_ERROR(table.InsertAt(addr, MakeRow(&rng, next_id++)));
    } else if (kind == 1 && table.IsOccupied(addr)) {
      RETURN_IF_ERROR(table.Update(addr, MakeRow(&rng, next_id++)));
    } else if (kind == 2 && table.IsOccupied(addr)) {
      RETURN_IF_ERROR(table.Delete(addr));
    }
  }

  Channel with_merge, without_merge;
  RefreshStats s1, s2;
  RETURN_IF_ERROR(
      table.Refresh(snap_time, *restriction, 1, true, &with_merge, &s1));
  RETURN_IF_ERROR(
      table.Refresh(snap_time, *restriction, 1, false, &without_merge, &s2));
  *merged_msgs = with_merge.stats().entry_messages +
                 with_merge.stats().delete_messages;
  *unmerged_msgs = without_merge.stats().entry_messages +
                   without_merge.stats().delete_messages;
  return Status::OK();
}

}  // namespace

int main(int argc, char** argv) {
  snapdiff::bench::BenchArgs args(argc, argv, "[address_space] [base_ops]");
  const uint64_t space = args.Size(20000);
  const size_t base_ops = args.Size(500);
  args.Finish();

  std::printf(
      "=== Ablation A1: empty-region merging across unqualified entries\n"
      "=== address space %llu, fill 60%%; data messages per refresh\n\n",
      static_cast<unsigned long long>(space));
  std::printf("%6s %8s %12s %12s %9s\n", "q%", "ops", "merged", "unmerged",
              "saving");

  for (double q : {0.01, 0.05, 0.25, 0.75}) {
    for (size_t mult : {1u, 4u, 16u}) {
      uint64_t merged = 0, unmerged = 0;
      auto st = RunOne(space, 0.6, q, base_ops * mult, 42 + mult, &merged,
                       &unmerged);
      if (!st.ok()) {
        std::fprintf(stderr, "failed: %s\n", st.ToString().c_str());
        return 1;
      }
      const double saving =
          unmerged == 0 ? 0.0
                        : 100.0 * double(unmerged - merged) / double(unmerged);
      std::printf("%6.1f %8zu %12llu %12llu %8.1f%%\n", q * 100,
                  base_ops * mult, static_cast<unsigned long long>(merged),
                  static_cast<unsigned long long>(unmerged), saving);
    }
  }
  return 0;
}
