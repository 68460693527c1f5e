// End-to-end regression guards: short full-pipeline runs must keep
// reproducing the paper's qualitative findings. Bounds are deliberately
// loose — these catch structural regressions (a relay bug, a broken policy),
// not calibration drift.
#include <gtest/gtest.h>

#include "analysis/commit.hpp"
#include "analysis/empty_blocks.hpp"
#include "analysis/forks.hpp"
#include "analysis/geo.hpp"
#include "analysis/ordering.hpp"
#include "analysis/propagation.hpp"
#include "analysis/rewards.hpp"
#include "check/oracles.hpp"
#include "core/experiment.hpp"

namespace ethsim {
namespace {

TEST(PaperShapes, GeographyAndPropagation) {
  core::ExperimentConfig cfg = core::presets::SmallStudy(120);
  cfg.duration = Duration::Hours(2);
  cfg.workload.rate_per_sec = 0;
  cfg.seed = 42;
  core::Experiment exp{cfg};
  exp.Run();
  const auto inputs = check::MakeStudyInputs(exp);

  // Fig 1 shape: median block propagation within the paper's order of
  // magnitude and a meaningful tail.
  const auto prop = analysis::BlockPropagationDelays(inputs.observers);
  EXPECT_GT(prop.median_ms, 20.0);
  EXPECT_LT(prop.median_ms, 200.0);
  EXPECT_GT(prop.p99_ms, prop.median_ms * 1.5);

  // Fig 2 shape: EA ahead of NA by a clear factor; everyone sees blocks.
  const auto geo = analysis::FirstObservationShares(inputs.observers);
  double ea = 0, na = 0;
  for (const auto& share : geo.shares) {
    if (share.vantage == "EA") ea = share.share;
    if (share.vantage == "NA") na = share.share;
  }
  EXPECT_GT(ea, 0.20);
  EXPECT_GT(ea, na * 1.3);
  EXPECT_GT(geo.total_blocks, 400u);
}

TEST(PaperShapes, ForksUnclesAndSelfishBehavior) {
  core::ExperimentConfig cfg = core::presets::SmallStudy(60);
  cfg.duration = Duration::Hours(5);
  cfg.workload.rate_per_sec = 0.3;
  cfg.mining.max_block_txs = 3;  // supply > capacity: no organic empties
  cfg.seed = 7;
  core::Experiment exp{cfg};
  exp.Run();
  const auto inputs = check::MakeStudyInputs(exp);

  // Table III shape: ~7% of blocks fork; the overwhelming majority of
  // length-1 forks get recognized as uncles.
  const auto census = analysis::ComputeForkCensus(inputs);
  EXPECT_GT(census.main_share, 0.85);
  EXPECT_LT(census.main_share, 0.98);
  EXPECT_GT(census.recognized_share, 0.01);
  ASSERT_FALSE(census.by_length.empty());
  EXPECT_EQ(census.by_length[0].length, 1u);
  EXPECT_GT(census.by_length[0].recognized,
            census.by_length[0].unrecognized);

  // §III-C5 shape: one-miner forks exist and collect uncle rewards.
  const auto omf = analysis::ComputeOneMinerForks(inputs, census);
  EXPECT_GT(omf.events, 0u);
  EXPECT_GT(omf.recognized_extra_share, 0.5);

  // Fig 6 shape: empties rare overall; Nanopool (index 3) mines none.
  const auto empty = analysis::EmptyBlockCensus(inputs);
  EXPECT_GT(empty.overall_empty_rate, 0.002);
  EXPECT_LT(empty.overall_empty_rate, 0.06);
  EXPECT_EQ(empty.rows[3].empty_blocks, 0u);

  // Reward fairness: revenue shares track hashrate within a few points for
  // the two big pools (no systematic theft in the accounting).
  const auto revenue = analysis::ComputeRevenue(inputs);
  EXPECT_NEAR(revenue.rows[0].revenue_share, revenue.rows[0].hashrate_share,
              0.08);
  EXPECT_GT(revenue.one_miner_uncle_eth, 0.0);  // §V leakage is real
  EXPECT_LT(revenue.fees_share_of_total, 0.05);
}

TEST(PaperShapes, CommitTimesAndOrdering) {
  core::ExperimentConfig cfg = core::presets::SmallStudy(30);
  cfg.duration = Duration::Hours(2);
  cfg.workload.rate_per_sec = 1.0;
  cfg.seed = 3;
  core::Experiment exp{cfg};
  exp.Run();
  const auto inputs = check::MakeStudyInputs(exp);

  // Fig 4 shape: 12-conf commit near 12-13 inter-block times.
  const auto commit = analysis::TransactionCommitTimes(inputs, {0, 12});
  ASSERT_GT(commit.committed_txs, 500u);
  const double median_12 = commit.delays_s[1].Median();
  EXPECT_GT(median_12, 120.0);
  EXPECT_LT(median_12, 280.0);
  // Inclusion strictly precedes commit.
  EXPECT_LT(commit.delays_s[0].Median(), median_12);

  // Fig 5 shape: a real out-of-order population with a commit penalty sign.
  const auto ordering = analysis::TransactionOrdering(inputs);
  EXPECT_GT(ordering.out_of_order_share, 0.03);
  EXPECT_LT(ordering.out_of_order_share, 0.30);
  EXPECT_GE(ordering.out_of_order_delay_s.Median(),
            ordering.in_order_delay_s.Median() - 5.0);
}

}  // namespace
}  // namespace ethsim
