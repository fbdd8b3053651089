// Reproduces Figure 8: % of base-table tuples transmitted per refresh as a
// function of update activity, for snapshot selectivities >= 25%, comparing
// the ideal, differential, and full refresh algorithms (simulation), with
// the closed-form analysis printed alongside.
//
// Usage: bench_fig8 [table_size] [trials]

#include <cstdio>

#include "bench_report.h"
#include "sim/experiment.h"

int main(int argc, char** argv) {
  snapdiff::FigureExperimentConfig config;
  snapdiff::bench::BenchArgs args(argc, argv, "[table_size] [trials]");
  config.table_size = args.Size(10000);
  config.trials = static_cast<int>(args.Size(3));
  args.Finish();
  config.selectivities = {0.25, 0.50, 0.75, 1.00};
  config.update_fractions = {0.0,  0.05, 0.10, 0.20, 0.30, 0.40,
                             0.50, 0.60, 0.70, 0.80, 0.90, 1.00};
  config.seed = 8;

  std::printf(
      "=== Figure 8: %% of tuples sent vs %% updated (N = %llu, %d trials)\n"
      "=== selectivities 25%%..100%%; ideal vs differential vs full\n\n",
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
