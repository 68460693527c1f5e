// Selfish-behavior laboratory (§III-C3/C5 + §V's what-if): make one pool
// progressively more aggressive about empty blocks and one-miner forks, and
// watch the platform-level damage — transaction commit delay, wasted mining
// power, and the uncle rewards the behavior captures.
//
//   $ ./selfish_behavior_lab [hours-per-run]
#include <cstdio>
#include <cstdlib>

#include "analysis/commit.hpp"
#include "analysis/empty_blocks.hpp"
#include "analysis/forks.hpp"
#include "analysis/rewards.hpp"
#include "check/oracles.hpp"
#include "core/experiment.hpp"

using namespace ethsim;

namespace {

struct LabResult {
  double empty_share = 0;
  double median_commit_s = 0;
  double omf_share_of_forks = 0;
  double recognized_extras = 0;
  std::size_t forked_blocks = 0;
  double subject_revenue_eth = 0;   // the selfish pool's total take
  double subject_leakage_eth = 0;   // of which one-miner uncle rewards
};

LabResult RunOnce(double empty_rate, double omf_rate, Duration duration) {
  core::ExperimentConfig cfg = core::presets::SmallStudy(40);
  cfg.duration = duration;
  cfg.workload.rate_per_sec = 1.0;
  // Make Ethermine (pool 0) the subject of the experiment.
  cfg.pools[0].policy.empty_block_rate = empty_rate;
  cfg.pools[0].policy.one_miner_fork_same_txset_rate = omf_rate * 0.56;
  cfg.pools[0].policy.one_miner_fork_distinct_txset_rate = omf_rate * 0.44;

  core::Experiment exp{cfg};
  exp.Run();

  const analysis::StudyInputs inputs = check::MakeStudyInputs(exp);

  LabResult out;
  const auto empty = analysis::EmptyBlockCensus(inputs);
  out.empty_share = empty.overall_empty_rate;
  const auto commit = analysis::TransactionCommitTimes(inputs, {12});
  if (!commit.delays_s[0].empty())
    out.median_commit_s = commit.delays_s[0].Median();
  const auto census = analysis::ComputeForkCensus(inputs);
  const auto omf = analysis::ComputeOneMinerForks(inputs, census);
  out.omf_share_of_forks = omf.share_of_all_forks;
  out.recognized_extras = omf.recognized_extra_share;
  out.forked_blocks = census.total_blocks - census.main_blocks;
  const auto revenue = analysis::ComputeRevenue(inputs);
  out.subject_revenue_eth = revenue.rows[0].total_eth;
  out.subject_leakage_eth = revenue.rows[0].one_miner_uncle_eth;
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  const Duration per_run =
      Duration::Hours(argc > 1 ? std::atof(argv[1]) : 2.0);

  std::printf("subject: Ethermine (25.3%% hashrate). Each row is an "
              "independent %.1fh run.\n\n",
              per_run.seconds() / 3600);

  std::printf("1) Empty-block aggressiveness vs transaction commit delay\n");
  std::printf("%-12s %-14s %-18s\n", "empty rate", "empty blocks",
              "median 12-conf");
  for (const double rate : {0.0234, 0.25, 0.60}) {
    const LabResult r = RunOnce(rate, 0.012, per_run);
    char share[16];
    std::snprintf(share, sizeof(share), "%.2f%%", r.empty_share * 100);
    std::printf("%-12.2f %-14s %-18.0fs\n", rate, share, r.median_commit_s);
  }
  std::printf("(the paper warns: if dominant miners switched to empty-block "
              "mining it would\nbe disastrous — commit delays inflate as "
              "capacity vanishes)\n\n");

  std::printf("2) One-miner-fork aggressiveness vs wasted work + captured "
              "uncle rewards\n");
  std::printf("%-12s %-18s %-16s %-14s %-12s %-12s\n", "omf rate",
              "omf share of forks", "extras rewarded", "forked blocks",
              "revenue", "omf take");
  for (const double rate : {0.012, 0.10, 0.30}) {
    const LabResult r = RunOnce(0.0234, rate, per_run);
    char omf_share[16], rewarded[16];
    std::snprintf(omf_share, sizeof(omf_share), "%.1f%%",
                  r.omf_share_of_forks * 100);
    std::snprintf(rewarded, sizeof(rewarded), "%.0f%%",
                  r.recognized_extras * 100);
    std::printf("%-12.2f %-18s %-16s %-14zu %-12s %-12s\n", rate, omf_share,
                rewarded, r.forked_blocks,
                (std::to_string(static_cast<int>(r.subject_revenue_eth)) +
                 " ETH").c_str(),
                (std::to_string(static_cast<int>(r.subject_leakage_eth)) +
                 " ETH").c_str());
  }
  std::printf("(§V's proposed fix: forbid referencing uncles whose miner "
              "already has a main\nblock at the same height — it would zero "
              "out the reward column above)\n");
  return 0;
}
