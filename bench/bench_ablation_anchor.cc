// Ablation A5: payload-free anchor messages (the paper's invited
// message-traffic improvement). Same workload through an optimized and an
// unoptimized differential snapshot; message counts are identical, payload
// bytes shrink — most for restrictive snapshots with delete-heavy churn,
// where many transmissions exist only to cover gaps.
//
// Usage: bench_ablation_anchor [table_size]

#include <cstdio>

#include "bench_report.h"
#include "sim/workload.h"

namespace {

using namespace snapdiff;

struct Row {
  uint64_t msgs_plain = 0;
  uint64_t bytes_plain = 0;
  uint64_t msgs_opt = 0;
  uint64_t bytes_opt = 0;
  uint64_t anchors = 0;
};

Result<Row> RunOne(uint64_t table_size, double q, double churn,
                   uint64_t seed) {
  SnapshotSystem sys;
  WorkloadConfig wc;
  wc.table_size = table_size;
  wc.seed = seed;
  ASSIGN_OR_RETURN(auto workload, Workload::Create(&sys, "base", wc));
  const std::string restriction = workload->RestrictionFor(q);

  SnapshotOptions on;
  on.anchor_optimization = true;
  RETURN_IF_ERROR(sys.CreateSnapshot("opt", "base", restriction, on).status());
  RETURN_IF_ERROR(sys.CreateSnapshot("plain", "base", restriction).status());
  RETURN_IF_ERROR(sys.Refresh(RefreshRequest::For("opt")).status());
  RETURN_IF_ERROR(sys.Refresh(RefreshRequest::For("plain")).status());

  // Delete-heavy churn creates gaps anchored by unchanged entries.
  RETURN_IF_ERROR(workload->ApplyMixedOps(
      static_cast<size_t>(churn * double(table_size)), 0.25, 0.5));

  Row out;
  ASSIGN_OR_RETURN(RefreshReport opt_report, sys.Refresh(RefreshRequest::For("opt")));
  ASSIGN_OR_RETURN(RefreshReport plain_report,
                   sys.Refresh(RefreshRequest::For("plain")));
  const RefreshStats& opt = opt_report.stats;
  const RefreshStats& plain = plain_report.stats;
  out.msgs_opt = opt.data_messages();
  out.bytes_opt = opt.traffic.payload_bytes;
  out.anchors = opt.anchor_messages;
  out.msgs_plain = plain.data_messages();
  out.bytes_plain = plain.traffic.payload_bytes;
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  snapdiff::bench::BenchArgs args(argc, argv, "[table_size]");
  const uint64_t table_size = args.Size(5000);
  args.Finish();

  std::printf(
      "=== Ablation A5: anchor optimization (payload-free gap anchors)\n"
      "=== N = %llu, delete-heavy churn (25/50/25 ins/del/upd)\n\n",
      static_cast<unsigned long long>(table_size));
  std::printf("%6s %8s %10s %10s %12s %12s %9s\n", "q%", "churn%", "msgs",
              "anchors", "bytes_plain", "bytes_opt", "saving");

  for (double q : {0.05, 0.25, 0.75}) {
    for (double churn : {0.05, 0.20, 0.50}) {
      auto row = RunOne(table_size, q, churn, 321);
      if (!row.ok()) {
        std::fprintf(stderr, "failed: %s\n", row.status().ToString().c_str());
        return 1;
      }
      if (row->msgs_opt != row->msgs_plain) {
        std::fprintf(stderr,
                     "message counts diverged (opt=%llu plain=%llu)!\n",
                     static_cast<unsigned long long>(row->msgs_opt),
                     static_cast<unsigned long long>(row->msgs_plain));
        return 1;
      }
      const double saving =
          row->bytes_plain == 0
              ? 0.0
              : 100.0 * double(row->bytes_plain - row->bytes_opt) /
                    double(row->bytes_plain);
      std::printf("%6.1f %8.1f %10llu %10llu %12llu %12llu %8.1f%%\n",
                  q * 100, churn * 100,
                  static_cast<unsigned long long>(row->msgs_opt),
                  static_cast<unsigned long long>(row->anchors),
                  static_cast<unsigned long long>(row->bytes_plain),
                  static_cast<unsigned long long>(row->bytes_opt), saving);
    }
  }
  return 0;
}
