// Figure 4: transaction inclusion time and commit time under 3/12/15/36
// block-confirmation rules.
#include "analysis/report.hpp"
#include "bench_util.hpp"

using namespace ethsim;

int main() {
  bench::Banner banner{"Fig 4 - transaction inclusion and commit times"};

  core::ExperimentConfig cfg = core::presets::SmallStudy(40);
  cfg.duration = Duration::Hours(3);  // 36-conf needs ~8 min of headroom
  cfg.workload.rate_per_sec = 1.5;
  core::Experiment exp{cfg};
  exp.Run();
  bench::PrintRunSummary(exp);

  const auto inputs = check::MakeStudyInputs(exp);
  std::printf(
      "%s\n",
      analysis::RenderFig4(analysis::TransactionCommitTimes(inputs)).c_str());
  return 0;
}
