// Compares the paper's §"Alternative Refresh Methods" head to head:
// differential (annotation) vs log-based (change buffering) vs ASAP
// propagation, across update activity. Beyond message counts, it surfaces
// the costs the paper argues about: retained log bytes (buffering space),
// log records scanned per refresh (culling effort), and per-operation
// messages (ASAP's base-update tax).
//
// Usage: bench_alternatives [table_size]

#include <cstdio>

#include "bench_report.h"
#include "sim/workload.h"

namespace {

using namespace snapdiff;

struct Row {
  double u;
  uint64_t diff_msgs = 0;
  uint64_t log_msgs = 0;
  uint64_t log_culled = 0;
  uint64_t log_bytes = 0;
  uint64_t asap_msgs = 0;  // messages sent at operation time
};

Result<Row> RunOne(uint64_t table_size, double u, uint64_t seed) {
  Row out;
  out.u = u;

  SnapshotSystem sys;
  WorkloadConfig wc;
  wc.table_size = table_size;
  wc.seed = seed;
  ASSIGN_OR_RETURN(auto workload, Workload::Create(&sys, "base", wc));
  const std::string restriction = workload->RestrictionFor(0.25);

  SnapshotOptions diff_opts;  // differential (default)
  RETURN_IF_ERROR(
      sys.CreateSnapshot("diff", "base", restriction, diff_opts).status());
  SnapshotOptions log_opts;
  log_opts.method = RefreshMethod::kLogBased;
  RETURN_IF_ERROR(
      sys.CreateSnapshot("log", "base", restriction, log_opts).status());
  SnapshotOptions asap_opts;
  asap_opts.method = RefreshMethod::kAsap;
  RETURN_IF_ERROR(
      sys.CreateSnapshot("asap", "base", restriction, asap_opts).status());

  RETURN_IF_ERROR(sys.Refresh(RefreshRequest::For("diff")).status());
  RETURN_IF_ERROR(sys.Refresh(RefreshRequest::For("log")).status());
  RETURN_IF_ERROR(sys.Refresh(RefreshRequest::For("asap")).status());

  const uint64_t sent_before = sys.data_channel()->stats().messages;
  RETURN_IF_ERROR(workload->UpdateFraction(u));
  // ASAP messages were sent during the burst itself.
  out.asap_msgs = sys.data_channel()->stats().messages - sent_before;

  ASSIGN_OR_RETURN(RefreshReport diff_report,
                   sys.Refresh(RefreshRequest::For("diff")));
  const RefreshStats& diff_stats = diff_report.stats;
  out.diff_msgs = diff_stats.data_messages();
  out.log_bytes = sys.wal()->retained_bytes();
  ASSIGN_OR_RETURN(RefreshReport log_report,
                   sys.Refresh(RefreshRequest::For("log")));
  const RefreshStats& log_stats = log_report.stats;
  out.log_msgs = log_stats.data_messages();
  out.log_culled = log_stats.log_records_culled;
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  snapdiff::bench::BenchArgs args(argc, argv, "[table_size]");
  const uint64_t table_size = args.Size(5000);
  args.Finish();

  std::printf(
      "=== Alternatives: differential vs log-based vs ASAP (q = 25%%, "
      "N = %llu)\n"
      "=== log_culled counts ALL retained records scanned per refresh;\n"
      "=== log_bytes is the buffering space the log method retains;\n"
      "=== asap_msgs are charged to base-table operations, not to refresh\n\n",
      static_cast<unsigned long long>(table_size));
  std::printf("%6s %10s %10s %12s %12s %10s\n", "u%", "diff", "log-based",
              "log_culled", "log_bytes", "asap");

  for (double u : {0.01, 0.05, 0.10, 0.25, 0.50, 1.00}) {
    auto row = RunOne(table_size, u, 31337);
    if (!row.ok()) {
      std::fprintf(stderr, "failed: %s\n", row.status().ToString().c_str());
      return 1;
    }
    std::printf("%6.1f %10llu %10llu %12llu %12llu %10llu\n", u * 100,
                static_cast<unsigned long long>(row->diff_msgs),
                static_cast<unsigned long long>(row->log_msgs),
                static_cast<unsigned long long>(row->log_culled),
                static_cast<unsigned long long>(row->log_bytes),
                static_cast<unsigned long long>(row->asap_msgs));
  }
  return 0;
}
