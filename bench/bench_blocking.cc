// Ablation A3: R*'s entry blocking — "the normal distributed query
// execution facilities in R* block the entries to be transmitted ... to
// reduce the cost of the refresh operation". Sweeps the channel blocking
// factor and reports frames and wire bytes for one differential refresh.
//
// Usage: bench_blocking [table_size] [update_fraction_percent]

#include <cstdio>

#include "bench_report.h"
#include "sim/workload.h"

namespace {

using namespace snapdiff;

Result<ChannelStats> RunOne(uint64_t table_size, double u,
                            size_t blocking_factor, uint64_t seed) {
  SnapshotSystemOptions sys_opts;
  sys_opts.channel.blocking_factor = blocking_factor;
  SnapshotSystem sys(sys_opts);
  WorkloadConfig wc;
  wc.table_size = table_size;
  wc.seed = seed;
  ASSIGN_OR_RETURN(auto workload, Workload::Create(&sys, "base", wc));
  RETURN_IF_ERROR(
      sys.CreateSnapshot("snap", "base", workload->RestrictionFor(0.25))
          .status());
  RETURN_IF_ERROR(sys.Refresh(RefreshRequest::For("snap")).status());
  RETURN_IF_ERROR(workload->UpdateFraction(u));
  ASSIGN_OR_RETURN(RefreshReport report, sys.Refresh(RefreshRequest::For("snap")));
  const RefreshStats& stats = report.stats;
  return stats.traffic;
}

}  // namespace

int main(int argc, char** argv) {
  snapdiff::bench::BenchArgs args(argc, argv,
                                  "[table_size] [update_percent]");
  const uint64_t table_size = args.Size(5000);
  const double u = args.Number(20.0) / 100.0;
  args.Finish();

  std::printf(
      "=== Ablation A3: blocking factor vs frames/wire bytes\n"
      "=== one differential refresh, N = %llu, q = 25%%, u = %.0f%%\n\n",
      static_cast<unsigned long long>(table_size), u * 100);
  std::printf("%10s %10s %10s %14s %14s\n", "blocking", "messages", "frames",
              "payload_B", "wire_B");

  for (size_t blocking : {1u, 2u, 4u, 8u, 16u, 32u, 64u, 128u, 256u}) {
    auto traffic = RunOne(table_size, u, blocking, 555);
    if (!traffic.ok()) {
      std::fprintf(stderr, "failed: %s\n",
                   traffic.status().ToString().c_str());
      return 1;
    }
    std::printf("%10zu %10llu %10llu %14llu %14llu\n", blocking,
                static_cast<unsigned long long>(traffic->messages),
                static_cast<unsigned long long>(traffic->frames),
                static_cast<unsigned long long>(traffic->payload_bytes),
                static_cast<unsigned long long>(traffic->wire_bytes));
  }
  return 0;
}
