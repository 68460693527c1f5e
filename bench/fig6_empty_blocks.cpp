// Figure 6 + §III-C3: the empty-block census per mining pool.
#include "analysis/report.hpp"
#include "bench_util.hpp"

using namespace ethsim;

int main() {
  bench::Banner banner{"Fig 6 - empty blocks per mining pool"};

  core::ExperimentConfig cfg = core::presets::SmallStudy(60);
  cfg.duration = Duration::Hours(9);  // ~2,400 blocks for per-pool counts
  // Mainnet blocks ran ~80% full (SIII-C3): keep transaction supply above
  // per-block capacity so a block is empty only when its pool *chose* to
  // skip packing — otherwise thin-workload "organic" empties drown the
  // deliberate ones the paper measures.
  cfg.workload.rate_per_sec = 0.30;
  cfg.mining.max_block_txs = 3;
  core::Experiment exp{cfg};
  exp.Run();
  bench::PrintRunSummary(exp);

  const auto inputs = check::MakeStudyInputs(exp);
  std::printf("%s\n",
              analysis::RenderFig6(analysis::EmptyBlockCensus(inputs)).c_str());
  return 0;
}
