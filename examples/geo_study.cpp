// The paper's §II deployment in miniature: four instrumented vantage nodes
// watch the overlay for a few simulated hours, then the full multi-vantage
// analysis pipeline reproduces the geographic findings (Figs 1-3) and the
// network-efficiency numbers in one go.
//
//   $ ./geo_study [hours] [seed]
#include <cstdio>
#include <cstdlib>

#include "analysis/report.hpp"
#include "check/oracles.hpp"
#include "core/experiment.hpp"

using namespace ethsim;

int main(int argc, char** argv) {
  core::ExperimentConfig cfg = core::presets::SmallStudy(120);
  cfg.duration = Duration::Hours(argc > 1 ? std::atof(argv[1]) : 2.0);
  cfg.seed = argc > 2 ? static_cast<std::uint64_t>(std::atoll(argv[2])) : 42;
  cfg.workload.rate_per_sec = 0.3;

  std::printf("deploying 4 vantage observers (NA, EA, WE, CE) over a %zu-node "
              "overlay,\n%zu mining pools, %.1f simulated hours...\n\n",
              cfg.peer_nodes, cfg.pools.size(), cfg.duration.seconds() / 3600);

  core::Experiment exp{cfg};
  exp.Run();

  const analysis::StudyInputs inputs = check::MakeStudyInputs(exp);

  const auto blocks = analysis::BlockPropagationDelays(inputs.observers);
  const auto txs = analysis::TxPropagationDelays(inputs.observers);
  const auto tx_rows = analysis::PerVantageTxDelay(inputs.observers);
  std::printf("%s\n", analysis::RenderFig1(blocks, txs, tx_rows).c_str());

  std::printf("%s\n",
              analysis::RenderFig2(
                  analysis::FirstObservationShares(inputs.observers)).c_str());

  std::printf("%s\n",
              analysis::RenderFig3(analysis::PoolFirstObservation(inputs))
                  .c_str());
  return 0;
}
