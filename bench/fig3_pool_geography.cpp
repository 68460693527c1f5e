// Figure 3: first-observation split per origin mining pool — evidence that
// pool gateways are not evenly distributed geographically.
#include "analysis/report.hpp"
#include "bench_util.hpp"

using namespace ethsim;

int main() {
  bench::Banner banner{"Fig 3 - per-pool first observation by region"};

  core::ExperimentConfig cfg = core::presets::SmallStudy(150);
  cfg.duration = Duration::Hours(16);  // small pools need enough blocks
  cfg.workload.rate_per_sec = 0;
  core::Experiment exp{cfg};
  exp.Run();
  bench::PrintRunSummary(exp);

  const auto inputs = check::MakeStudyInputs(exp);
  std::printf("%s\n",
              analysis::RenderFig3(analysis::PoolFirstObservation(inputs))
                  .c_str());
  return 0;
}
