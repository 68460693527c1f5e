// Fig 4 under load: commit-time inflation as the offered transaction rate
// rises. Sweeps a load multiplier over a mixed geo-aware workload plan
// (diurnal NA/EA retail, a flat baseline with replace-by-fee, a scheduled
// flash crowd, and closed-loop clients) and prints, per step, the Fig 4
// inclusion/commit quantiles next to the demand reconciliation tables.
#include <vector>

#include "analysis/commit.hpp"
#include "analysis/demand.hpp"
#include "analysis/report.hpp"
#include "bench_util.hpp"

using namespace ethsim;

namespace {

workload::WorkloadPlan PlanFor(double load, std::size_t clients) {
  workload::WorkloadPlan plan;
  plan.Poisson("base", 0.6 * load, 150);
  plan.last().fee.replacement_deadline = Duration::Seconds(120);
  plan.Diurnal("retail-na", 0.3 * load, 60, net::Region::NorthAmerica);
  plan.last().account_offset = 150;
  plan.Diurnal("retail-ea", 0.3 * load, 60, net::Region::EasternAsia,
               /*amplitude=*/0.6, /*peak_hour=*/21.0);
  plan.last().account_offset = 210;
  plan.FlashCrowd("drop", 0.2 * load, 40,
                  TimePoint::FromMicros(Duration::Minutes(40).micros()),
                  Duration::Minutes(10), 6.0);
  plan.last().account_offset = 270;
  plan.last().zipf_exponent = 1.2;  // the mint contract's hot senders
  plan.ClosedLoop("users", clients, Duration::Seconds(45), 3);
  plan.last().account_offset = 400;
  return plan;
}

}  // namespace

int main() {
  bench::Banner banner{"Fig 4 under load - commit times vs offered rate"};

  const std::size_t nodes = bench::EnvSizeT("ETHSIM_FIG4_LOAD_NODES", 40);
  const double hours =
      static_cast<double>(bench::EnvSizeT("ETHSIM_FIG4_LOAD_HOURS", 2));
  const std::vector<double> multipliers{0.5, 1.0, 2.0, 4.0};
  const std::vector<std::uint64_t> depths{0, 3, 12};

  for (const double load : multipliers) {
    core::ExperimentConfig cfg = core::presets::SmallStudy(nodes);
    cfg.duration = Duration::Hours(hours);
    cfg.workload_plan =
        PlanFor(load, static_cast<std::size_t>(10.0 * load));
    bench::ApplyTelemetryEnv(cfg);

    std::printf("======== load x%.1f ========\n", load);
    core::Experiment exp{cfg};
    exp.Run();
    bench::PrintRunSummary(exp);

    const auto inputs = check::MakeStudyInputs(exp);
    const auto commit = analysis::TransactionCommitTimes(inputs, depths);
    std::printf("%s\n", analysis::RenderFig4(commit).c_str());
    const auto demand = analysis::AnalyzeDemand(
        inputs, exp.workload().submitted(), exp.workload().plan(), depths);
    std::printf("%s", analysis::RenderDemand(demand).c_str());
    std::printf("closed loop: %llu completed, %llu in flight at run end\n\n",
                static_cast<unsigned long long>(
                    exp.workload().closed_loop_completed()),
                static_cast<unsigned long long>(
                    exp.workload().closed_loop_in_flight()));
    if (demand.committed_total != commit.committed_txs)
      std::fprintf(stderr,
                   "warning: demand committed %llu != commit analysis %llu\n",
                   static_cast<unsigned long long>(demand.committed_total),
                   static_cast<unsigned long long>(commit.committed_txs));
    bench::WriteBenchArtifacts(exp, "fig4_commit_load");
  }
  return 0;
}
