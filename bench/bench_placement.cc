// Ablation A4: how the heap's insert placement policy (first-fit hole
// reuse vs append-only vs random) changes differential message traffic
// under insert/delete churn. Hole reuse keeps the address space dense and
// gaps short; append-only grows the tail, so interior deletions and the
// closing message do more work.
//
// Usage: bench_placement [table_size] [rounds]

#include <cstdio>

#include "bench_report.h"
#include "sim/workload.h"

namespace {

using namespace snapdiff;

Result<std::pair<double, double>> Run(PlacementPolicy placement,
                                      uint64_t table_size, int rounds,
                                      double churn, uint64_t seed) {
  SnapshotSystem sys;
  WorkloadConfig wc;
  wc.table_size = table_size;
  wc.seed = seed;
  wc.placement = placement;
  ASSIGN_OR_RETURN(auto workload, Workload::Create(&sys, "base", wc));
  RETURN_IF_ERROR(
      sys.CreateSnapshot("snap", "base", workload->RestrictionFor(0.25))
          .status());
  RETURN_IF_ERROR(sys.Refresh(RefreshRequest::For("snap")).status());

  double total_msgs = 0;
  double total_rows = 0;
  for (int r = 0; r < rounds; ++r) {
    // Heavy insert/delete churn (40% inserts, 40% deletes, 20% updates).
    RETURN_IF_ERROR(workload->ApplyMixedOps(
        static_cast<size_t>(churn * double(table_size)), 0.4, 0.4));
    ASSIGN_OR_RETURN(RefreshReport report, sys.Refresh(RefreshRequest::For("snap")));
    const RefreshStats& stats = report.stats;
    total_msgs += double(stats.data_messages());
    total_rows += double(workload->table_size());
  }
  return std::make_pair(total_msgs / rounds, 100.0 * total_msgs / total_rows);
}

}  // namespace

int main(int argc, char** argv) {
  snapdiff::bench::BenchArgs args(argc, argv, "[table_size] [rounds]");
  const uint64_t table_size = args.Size(5000);
  const int rounds = static_cast<int>(args.Size(5));
  args.Finish();

  std::printf(
      "=== Ablation A4: insert placement policy vs differential traffic\n"
      "=== N = %llu, q = 25%%, churn 10%% ops/round (40/40/20 ins/del/upd), "
      "%d rounds\n\n",
      static_cast<unsigned long long>(table_size), rounds);
  std::printf("%-10s %16s %16s\n", "placement", "msgs/refresh",
              "%of live rows");

  for (PlacementPolicy p : {PlacementPolicy::kFirstFit,
                            PlacementPolicy::kAppend,
                            PlacementPolicy::kRandom}) {
    auto r = Run(p, table_size, rounds, 0.10, 1234);
    if (!r.ok()) {
      std::fprintf(stderr, "failed: %s\n", r.status().ToString().c_str());
      return 1;
    }
    std::printf("%-10s %16.1f %15.2f%%\n",
                std::string(PlacementPolicyToString(p)).c_str(), r->first,
                r->second);
  }
  return 0;
}
