// Figure 7: sequences of consecutive main-chain blocks per pool. Two modes:
// a month-scale winner-process sample (201,086 blocks, like the paper's
// observation window) and a full network simulation cross-check that the
// overlay does not distort the sequence statistics.
#include "analysis/report.hpp"
#include "bench_util.hpp"

using namespace ethsim;

int main() {
  bench::Banner banner{"Fig 7 - consecutive main blocks per pool"};

  // Month-scale winner process (network-free, as justified in DESIGN.md:
  // run statistics depend only on the per-block winner distribution).
  const auto pools = miner::PaperPools();
  const auto winners = analysis::SampleWinners(pools, 201'086, Rng{11});
  const auto month = analysis::SequencesFromWinners(winners, pools);
  std::printf("%s\n", analysis::RenderFig7(month).c_str());

  // Cross-check on a full overlay simulation: same CDF shape at small scale.
  core::ExperimentConfig cfg = core::presets::SmallStudy(40);
  cfg.duration = Duration::Hours(8);
  cfg.workload.rate_per_sec = 0;
  core::Experiment exp{cfg};
  exp.Run();
  bench::PrintRunSummary(exp);
  const auto inputs = check::MakeStudyInputs(exp);
  const auto simulated = analysis::ConsecutiveMinerSequences(inputs);
  std::printf("full-simulation cross-check (%zu blocks):\n%s\n",
              simulated.total_main_blocks,
              analysis::RenderFig7(simulated).c_str());
  return 0;
}
