// The planner's trade-off made concrete: "When an efficient method for
// applying the snapshot restriction is available (e.g., an index), the
// base table sequential scan may be more costly than simply re-populating
// the snapshot." Compares, per refresh: sequential-scan full refresh,
// index-assisted full refresh, and differential refresh — reporting base
// entries touched (scan entries or index retrievals) and data messages.
//
// Usage: bench_index_refresh [table_size]

#include <cstdio>

#include "bench_report.h"
#include "sim/workload.h"
#include "snapshot/secondary_index.h"

namespace {

using namespace snapdiff;

struct Row {
  uint64_t touched = 0;  // entries scanned + rows retrieved via index
  uint64_t msgs = 0;
};

Result<Row> RunOne(uint64_t table_size, double q, double u, bool indexed,
                   RefreshMethod method, uint64_t seed) {
  SnapshotSystem sys;
  WorkloadConfig wc;
  wc.table_size = table_size;
  wc.seed = seed;
  ASSIGN_OR_RETURN(auto workload, Workload::Create(&sys, "base", wc));
  if (indexed) {
    RETURN_IF_ERROR(
        workload->table()->CreateSecondaryIndex("Qual").status());
  }
  SnapshotOptions opts;
  opts.method = method;
  RETURN_IF_ERROR(
      sys.CreateSnapshot("snap", "base", workload->RestrictionFor(q), opts)
          .status());
  RETURN_IF_ERROR(sys.Refresh(RefreshRequest::For("snap")).status());
  RETURN_IF_ERROR(workload->UpdateFraction(u));
  ASSIGN_OR_RETURN(RefreshReport report, sys.Refresh(RefreshRequest::For("snap")));
  const RefreshStats& stats = report.stats;
  Row out;
  out.touched = stats.entries_scanned + stats.base_reads;
  out.msgs = stats.data_messages();
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  snapdiff::bench::BenchArgs args(argc, argv, "[table_size]");
  const uint64_t table_size = args.Size(10000);
  args.Finish();

  std::printf(
      "=== Index-assisted full refresh vs sequential scan vs differential\n"
      "=== N = %llu, u = 10%%; 'touched' = base entries read per refresh\n\n",
      static_cast<unsigned long long>(table_size));
  std::printf("%6s %22s %22s %22s\n", "q%", "full(scan)", "full(indexed)",
              "differential");
  std::printf("%6s %11s %10s %11s %10s %11s %10s\n", "", "touched", "msgs",
              "touched", "msgs", "touched", "msgs");

  for (double q : {0.01, 0.05, 0.25, 0.75}) {
    Row scan, indexed, diff;
    auto r1 = RunOne(table_size, q, 0.1, false, RefreshMethod::kFull, 3);
    auto r2 = RunOne(table_size, q, 0.1, true, RefreshMethod::kFull, 3);
    auto r3 =
        RunOne(table_size, q, 0.1, false, RefreshMethod::kDifferential, 3);
    if (!r1.ok() || !r2.ok() || !r3.ok()) {
      std::fprintf(stderr, "failed\n");
      return 1;
    }
    scan = *r1;
    indexed = *r2;
    diff = *r3;
    std::printf("%6.1f %11llu %10llu %11llu %10llu %11llu %10llu\n",
                q * 100, static_cast<unsigned long long>(scan.touched),
                static_cast<unsigned long long>(scan.msgs),
                static_cast<unsigned long long>(indexed.touched),
                static_cast<unsigned long long>(indexed.msgs),
                static_cast<unsigned long long>(diff.touched),
                static_cast<unsigned long long>(diff.msgs));
  }
  std::printf(
      "\nFor restrictive snapshots the indexed full refresh touches only "
      "q*N rows\n(vs a full scan) but still ships q*N messages; "
      "differential scans N rows\nbut ships only the changes.\n");
  return 0;
}
