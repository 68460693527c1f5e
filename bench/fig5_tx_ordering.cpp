// Figure 5 + §III-C2: out-of-order transaction receptions and their commit
// penalty.
#include "analysis/report.hpp"
#include "bench_util.hpp"

using namespace ethsim;

int main() {
  bench::Banner banner{"Fig 5 - commit delay by reception ordering"};

  core::ExperimentConfig cfg = core::presets::SmallStudy(40);
  cfg.duration = Duration::Hours(3);
  cfg.workload.rate_per_sec = 1.5;
  core::Experiment exp{cfg};
  exp.Run();
  bench::PrintRunSummary(exp);

  const auto inputs = check::MakeStudyInputs(exp);
  std::printf("%s\n",
              analysis::RenderFig5(analysis::TransactionOrdering(inputs))
                  .c_str());
  return 0;
}
