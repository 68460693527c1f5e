// Figure 2: share of first new-block observations per vantage region.
//
// Pools wins over a multi-seed sweep (default 4 seeds, override with
// ETHSIM_SWEEP_SEEDS / ETHSIM_SWEEP_THREADS) so the per-region shares are
// averaged over independent runs, merged deterministically in seed order.
#include <chrono>

#include "analysis/merge.hpp"
#include "analysis/report.hpp"
#include "bench_util.hpp"
#include "core/sweep.hpp"

using namespace ethsim;

int main() {
  bench::Banner banner{"Fig 2 - first observations per region"};

  core::ExperimentConfig cfg = core::presets::SmallStudy(150);
  cfg.duration = Duration::Hours(10);
  cfg.workload.rate_per_sec = 0;  // blocks only

  const std::size_t seed_count = bench::EnvSizeT("ETHSIM_SWEEP_SEEDS", 4);
  core::SeedSweepRunner runner{{bench::EnvSizeT("ETHSIM_SWEEP_THREADS", 0)}};
  const auto seeds = core::ConsecutiveSeeds(cfg.seed, seed_count);

  const auto t0 = std::chrono::steady_clock::now();
  const auto runs = runner.RunExperiments(cfg, seeds);
  const double sweep_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  std::printf("sweep: %zu seeds on %zu threads in %.2f s\n\n", seeds.size(),
              runner.threads(), sweep_s);

  std::vector<analysis::GeoResult> parts;
  for (const auto& run : runs) {
    bench::PrintRunSummary(*run);
    parts.push_back(analysis::FirstObservationShares(
        check::MakeStudyInputs(*run).observers));
  }

  std::printf("%s\n",
              analysis::RenderFig2(analysis::MergeGeoResults(parts)).c_str());
  return 0;
}
