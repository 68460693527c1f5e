// Ablation: the paper's §V protocol fix — "forbid referencing uncles mined
// by miners that have already mined a main block of the same height". Runs
// the same study with the rule off (today's Ethereum) and on, and measures
// who captures uncle rewards from one-miner forks.
#include "analysis/report.hpp"
#include "analysis/rewards.hpp"
#include "bench_util.hpp"
#include "common/render.hpp"

using namespace ethsim;

namespace {

struct Outcome {
  std::size_t omf_events = 0;
  double omf_rewarded = 0;       // extras recognized as uncles
  double uncle_rate = 0;         // recognized uncles / total blocks
  std::size_t recognized_uncles = 0;
  double leakage_eth = 0;        // ETH paid to one-miner-fork uncles
};

Outcome RunWithRule(bool forbid) {
  core::ExperimentConfig cfg = core::presets::SmallStudy(60);
  cfg.duration = Duration::Hours(10);
  cfg.workload.rate_per_sec = 0.2;
  cfg.mining.forbid_one_miner_uncles = forbid;
  // Crank one-miner-fork behavior up so the effect is sharply visible.
  for (auto& pool : cfg.pools) {
    if (pool.hashrate_share > 0.10) {
      pool.policy.one_miner_fork_same_txset_rate = 0.03 * 0.56;
      pool.policy.one_miner_fork_distinct_txset_rate = 0.03 * 0.44;
    }
  }

  core::Experiment exp{cfg};
  exp.Run();
  const auto inputs = check::MakeStudyInputs(exp);
  const auto census = analysis::ComputeForkCensus(inputs);
  const auto omf = analysis::ComputeOneMinerForks(inputs, census);
  const auto revenue = analysis::ComputeRevenue(inputs);
  return Outcome{omf.events, omf.recognized_extra_share,
                 census.recognized_share, census.recognized_uncles,
                 revenue.one_miner_uncle_eth};
}

}  // namespace

int main() {
  bench::Banner banner{"Ablation - SV's one-miner-uncle ban"};

  render::Table t{{"protocol", "one-miner forks", "extras rewarded",
                   "recognized uncles", "uncle share", "SV leakage"}};
  const Outcome vanilla = RunWithRule(false);
  const Outcome strict = RunWithRule(true);
  t.AddRow({"Ethereum rules", std::to_string(vanilla.omf_events),
            render::Percent(vanilla.omf_rewarded),
            std::to_string(vanilla.recognized_uncles),
            render::Percent(vanilla.uncle_rate, 2),
            render::Fmt(vanilla.leakage_eth, 2) + " ETH"});
  t.AddRow({"SV ban", std::to_string(strict.omf_events),
            render::Percent(strict.omf_rewarded),
            std::to_string(strict.recognized_uncles),
            render::Percent(strict.uncle_rate, 2),
            render::Fmt(strict.leakage_eth, 2) + " ETH"});
  std::printf("%s\n", t.ToString().c_str());
  std::printf(
      "the paper's claim: under today's rules one-miner forks collect uncle\n"
      "rewards in ~98%% of cases; the SV ban zeroes that out, deterring the\n"
      "behavior and leaving uncle slots to honest small miners (~1%% of the\n"
      "platform's mining power reclaimed).\n");
  return 0;
}
