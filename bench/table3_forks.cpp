// Table III + §III-C4/C5: the fork census — lengths, uncle recognition, and
// one-miner forks.
//
// Runs a multi-seed sweep (default 4 seeds, override with ETHSIM_SWEEP_SEEDS
// / ETHSIM_SWEEP_THREADS) through SeedSweepRunner and merges the per-seed
// censuses deterministically, so the table is pooled over N independent
// simulated months regardless of thread count.
#include <chrono>
#include <cstdlib>

#include "analysis/merge.hpp"
#include "analysis/report.hpp"
#include "bench_util.hpp"
#include "core/sweep.hpp"

using namespace ethsim;

int main() {
  bench::Banner banner{"Table III - fork lengths, recognition, one-miner forks"};

  core::ExperimentConfig cfg = core::presets::SmallStudy(60);
  cfg.duration = Duration::Hours(20);  // ~5,400 blocks: enough length-2 forks
  cfg.workload.rate_per_sec = 0.25;
  bench::ApplyTelemetryEnv(cfg);

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

  std::vector<analysis::ForkCensus> censuses;
  std::vector<analysis::OneMinerForkCensus> omfs;
  for (const auto& run : runs) {
    bench::PrintRunSummary(*run);
    const auto inputs = check::MakeStudyInputs(*run);
    censuses.push_back(analysis::ComputeForkCensus(inputs));
    omfs.push_back(analysis::ComputeOneMinerForks(inputs, censuses.back()));
  }

  const auto census = analysis::MergeForkCensus(censuses);
  const auto omf = analysis::MergeOneMinerForks(omfs, census);
  std::printf("%s\n", analysis::RenderTable3(census, omf).c_str());

  // Artifact set for the first seed, plus the thread-count-invariant merged
  // registry / time-series when the matching gates are on.
  bench::WriteBenchArtifacts(*runs[0], "table3_forks");
  if (runs[0]->telemetry() != nullptr &&
      runs[0]->telemetry()->metrics() != nullptr) {
    const obs::MetricsRegistry merged = core::MergeSweepMetrics(runs);
    std::printf("merged metrics: %zu instruments over %zu seeds\n",
                merged.size(), runs.size());
  }
  if (runs[0]->telemetry() != nullptr &&
      runs[0]->telemetry()->sampler() != nullptr) {
    const obs::TimeSeriesLog merged = core::MergeSweepTimeSeries(runs);
    std::printf("merged time-series: %zu series x %zu samples over %zu "
                "seeds\n",
                merged.series_count(), merged.sample_count(), runs.size());
  }
  return 0;
}
