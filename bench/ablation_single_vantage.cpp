// Ablation: single- vs multi-vantage measurement (the paper's §I critique of
// prior studies that relied on one observation point). Runs one study and
// compares what each single vantage alone would have concluded about block
// propagation against the four-vantage view — the per-region bias is
// exactly why "multi-observer measurement approaches" matter (§V).
#include "analysis/report.hpp"
#include "bench_util.hpp"
#include "common/render.hpp"

using namespace ethsim;

int main() {
  bench::Banner banner{"Ablation - single vs multi vantage measurement"};

  core::ExperimentConfig cfg = core::presets::SmallStudy(150);
  cfg.duration = Duration::Hours(4);
  cfg.workload.rate_per_sec = 0;
  core::Experiment exp{cfg};
  exp.Run();
  bench::PrintRunSummary(exp);

  const auto inputs = check::MakeStudyInputs(exp);

  // Multi-vantage ground picture.
  const auto all = analysis::BlockPropagationDelays(inputs.observers);

  // What each vantage alone would report: it can only measure deltas
  // relative to itself, so a single-point study must pair with a second
  // fixed point — emulate the common design of "my node vs network" by
  // pairing each vantage with each other single vantage.
  render::Table t{{"measurement design", "median delay", "p95", "samples"}};
  t.AddRow({"4 vantages (this paper)", render::Fmt(all.median_ms, 1) + " ms",
            render::Fmt(all.p95_ms, 1) + " ms",
            std::to_string(all.delays_ms.count())});
  for (std::size_t i = 0; i < inputs.observers.size(); ++i) {
    for (std::size_t j = i + 1; j < inputs.observers.size(); ++j) {
      analysis::ObserverSet pair{inputs.observers[i], inputs.observers[j]};
      const auto result = analysis::BlockPropagationDelays(pair);
      t.AddRow({std::string("pair ") + inputs.observers[i]->name() + "-" +
                    inputs.observers[j]->name(),
                render::Fmt(result.median_ms, 1) + " ms",
                render::Fmt(result.p95_ms, 1) + " ms",
                std::to_string(result.delays_ms.count())});
    }
  }
  std::printf("%s\n", t.ToString().c_str());

  std::printf(
      "pairs containing EA (where most hashrate releases blocks) see very\n"
      "different delay distributions than intra-European pairs: a single\n"
      "observation point inherits its region's bias, which is the paper's\n"
      "argument (SI limitation (i), SV) for geographically dispersed\n"
      "measurement infrastructure.\n");
  return 0;
}
