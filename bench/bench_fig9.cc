// Reproduces Figure 9: the restrictive-snapshot end of Figure 8 —
// selectivities 1% and 5%, where the differential algorithm's superfluous
// messages are most visible (the paper plots this on a log scale).
//
// Usage: bench_fig9 [table_size] [trials]

#include <cstdio>

#include "bench_report.h"
#include "sim/experiment.h"

int main(int argc, char** argv) {
  snapdiff::FigureExperimentConfig config;
  snapdiff::bench::BenchArgs args(argc, argv, "[table_size] [trials]");
  config.table_size = args.Size(10000);
  config.trials = static_cast<int>(args.Size(5));
  args.Finish();
  config.selectivities = {0.01, 0.05};
  config.update_fractions = {0.005, 0.01, 0.02, 0.05, 0.10, 0.20,
                             0.30,  0.50, 0.70, 1.00};
  config.seed = 9;

  std::printf(
      "=== Figure 9: restrictive snapshots (q = 1%%, 5%%), N = %llu, "
      "%d trials\n"
      "=== the paper plots these curves on a logarithmic axis\n\n",
      static_cast<unsigned long long>(config.table_size), config.trials);

  auto points = snapdiff::RunFigureExperiment(config);
  if (!points.ok()) {
    std::fprintf(stderr, "experiment failed: %s\n",
                 points.status().ToString().c_str());
    return 1;
  }
  std::fputs(snapdiff::RenderFigureTable(*points).c_str(), stdout);
  std::fputs("\nCSV:\n", stdout);
  std::fputs(snapdiff::RenderFigureCsv(*points).c_str(), stdout);
  std::fputs("\nMetrics (accumulated over the run):\n", stdout);
  std::fputs(snapdiff::RenderMetricsDump().c_str(), stdout);
  std::fputs("\n", stdout);
  return 0;
}
