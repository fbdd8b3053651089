// Validates the closed-form message model against the simulator — the
// paper's "Both simulation and analysis show that the above hypothesis is
// true". Reports the worst absolute gap (in percentage points of the base
// table) per method over a grid of (q, u).
//
// Usage: bench_analytic_vs_sim [table_size] [trials]

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>

#include "bench_report.h"
#include "sim/experiment.h"

int main(int argc, char** argv) {
  snapdiff::FigureExperimentConfig config;
  snapdiff::bench::BenchArgs args(argc, argv, "[table_size] [trials]");
  config.table_size = args.Size(8000);
  config.trials = static_cast<int>(args.Size(4));
  args.Finish();
  config.selectivities = {0.01, 0.05, 0.25, 0.50, 1.00};
  config.update_fractions = {0.01, 0.05, 0.10, 0.30, 0.60, 1.00};
  config.seed = 77;

  std::printf("=== analysis vs simulation (N = %llu, %d trials)\n\n",
              static_cast<unsigned long long>(config.table_size),
              config.trials);

  auto points = snapdiff::RunFigureExperiment(config);
  if (!points.ok()) {
    std::fprintf(stderr, "experiment failed: %s\n",
                 points.status().ToString().c_str());
    return 1;
  }

  std::map<snapdiff::RefreshMethod, double> worst_abs;
  std::printf("%6s %6s %14s %10s %10s %8s\n", "q%", "u%", "method", "sim%",
              "model%", "gap");
  for (const auto& p : *points) {
    if (std::isnan(p.analytic_pct)) continue;
    const double gap = std::fabs(p.pct_sent - p.analytic_pct);
    worst_abs[p.method] = std::max(worst_abs[p.method], gap);
    std::printf("%6.2f %6.1f %14s %9.3f%% %9.3f%% %8.3f\n",
                p.selectivity * 100, p.update_fraction * 100,
                std::string(RefreshMethodToString(p.method)).c_str(),
                p.pct_sent, p.analytic_pct, gap);
  }
  std::printf("\nworst absolute gap (percentage points of N):\n");
  bool ok = true;
  for (const auto& [method, gap] : worst_abs) {
    std::printf("  %-14s %.3f\n",
                std::string(RefreshMethodToString(method)).c_str(), gap);
    // The model is exact in expectation; Monte-Carlo noise at these sizes
    // stays well under 2 points.
    if (gap > 2.0) ok = false;
  }
  std::printf("\n%s\n", ok ? "MODEL AGREES WITH SIMULATION"
                           : "MODEL/SIMULATION DISAGREE (> 2 points)");
  return ok ? 0 : 1;
}
