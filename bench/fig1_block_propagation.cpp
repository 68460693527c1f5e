// Figure 1 + §III-A1: block propagation delay histogram across the four
// vantages, and the transaction-propagation geographic (non-)effect.
#include "analysis/report.hpp"
#include "bench_util.hpp"

using namespace ethsim;

int main() {
  bench::Banner banner{"Fig 1 - block propagation delays (4 vantages)"};

  core::ExperimentConfig cfg = core::presets::SmallStudy(150);
  cfg.duration = Duration::Hours(1.5);
  cfg.workload.rate_per_sec = 0.4;  // light tx load for the SIII-A1 claim
  bench::ApplyTelemetryEnv(cfg);
  core::Experiment exp{cfg};
  exp.Run();
  bench::PrintRunSummary(exp);
  bench::WriteBenchArtifacts(exp, "fig1_block_propagation");

  const auto inputs = check::MakeStudyInputs(exp);
  const auto blocks = analysis::BlockPropagationDelays(inputs.observers);
  const auto txs = analysis::TxPropagationDelays(inputs.observers);
  const auto tx_rows = analysis::PerVantageTxDelay(inputs.observers);
  std::printf("%s\n", analysis::RenderFig1(blocks, txs, tx_rows).c_str());
  return 0;
}
