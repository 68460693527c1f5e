// Commit-latency decomposition tests: the reconciling form must agree
// exactly with TransactionCommitTimes and AnalyzeDemand on the committed
// set, every committed tx must carry a complete stage timeline (the
// recorder's coverage claim), and the log-only form used by
// `ethsim_inspect --stages` must be deterministic over the same artifact.
#include "analysis/latency_stages.hpp"

#include <gtest/gtest.h>

#include "analysis/commit.hpp"
#include "analysis/demand.hpp"
#include "check/oracles.hpp"
#include "core/experiment.hpp"

namespace ethsim {
namespace {

const std::vector<std::uint64_t> kDepths{0, 3, 12, 15, 36};

core::ExperimentConfig SmokeConfig() {
  core::ExperimentConfig cfg = core::presets::SmallStudy(24);
  cfg.duration = Duration::Minutes(12);
  cfg.workload.rate_per_sec = 0.5;
  cfg.telemetry.txprov = true;
  return cfg;
}

TEST(LatencyStages, ReconcilesWithCommitAndDemand) {
  core::Experiment exp{SmokeConfig()};
  exp.Run();
  ASSERT_NE(exp.telemetry(), nullptr);
  ASSERT_NE(exp.telemetry()->txprov(), nullptr);
  obs::TxProvRecorder* txprov = exp.telemetry()->txprov();
  EXPECT_EQ(txprov->violations(), 0u);
  ASSERT_EQ(txprov->confirmation_depths(), kDepths);
  const obs::TxProvLog& log = txprov->Finish();
  ASSERT_GT(log.size(), 0u);

  const auto inputs = check::MakeStudyInputs(exp);
  const auto commit = analysis::TransactionCommitTimes(inputs, kDepths);
  const auto demand = analysis::AnalyzeDemand(
      inputs, exp.workload().submitted(), exp.workload().plan(), kDepths);
  const auto stages = analysis::DecomposeLatencyStages(
      inputs, exp.workload().submitted(), log, kDepths);

  // The headline reconciliation: all three committed counts are the same
  // rule over the same run, so they must agree exactly.
  ASSERT_GT(commit.committed_txs, 0u);
  EXPECT_EQ(stages.committed_total, commit.committed_txs);
  EXPECT_EQ(stages.committed_total, demand.committed_total);
  EXPECT_EQ(stages.depths, kDepths);

  // Coverage: every committed tx has all four stage anchors in the log
  // (submission funnel + frontend admit + anchor include + depth sweep).
  EXPECT_EQ(stages.missing_stage_records, 0u);
  EXPECT_EQ(stages.overall.committed, stages.committed_total);
  EXPECT_EQ(stages.overall.submit_to_admit_s.count(), stages.committed_total);
  EXPECT_EQ(stages.overall.admit_to_include_s.count(), stages.committed_total);
  EXPECT_EQ(stages.overall.include_to_commit_s.count(),
            stages.committed_total);

  // Attribution is total: every committed tx lands in exactly one region
  // bucket (the submitting frontend's) and one pool bucket (the including
  // block's coinbase; the roster covers every miner).
  std::uint64_t region_sum = 0;
  for (const auto& bucket : stages.per_region) region_sum += bucket.committed;
  EXPECT_EQ(region_sum, stages.committed_total);
  ASSERT_EQ(stages.per_pool.size(), exp.config().pools.size());
  std::uint64_t pool_sum = 0;
  for (const auto& bucket : stages.per_pool) pool_sum += bucket.committed;
  EXPECT_EQ(pool_sum, stages.committed_total);

  // Stage splits are sane: nonnegative medians, and the confirmation leg
  // (36 blocks deep) dominates the admission leg.
  EXPECT_GE(stages.overall.submit_to_admit_s.Quantile(0.5), 0.0);
  EXPECT_GE(stages.overall.admit_to_include_s.Quantile(0.5), 0.0);
  EXPECT_GT(stages.overall.include_to_commit_s.Quantile(0.5),
            stages.overall.submit_to_admit_s.Quantile(0.5));

  // Renderers: overall row always present; CSV carries the header.
  const std::string table = analysis::RenderLatencyStages(stages);
  EXPECT_NE(table.find("overall"), std::string::npos);
  EXPECT_NE(table.find("committed: "), std::string::npos);
  const std::string csv = analysis::RenderLatencyStagesCsv(stages);
  EXPECT_NE(csv.find("kind,bucket,committed,n,submit_admit_p50_s"),
            std::string::npos);
  EXPECT_NE(csv.find("overall,overall,"), std::string::npos);
}

TEST(LatencyStages, LogOnlyFormIsDeterministicAndConsistent) {
  core::Experiment exp{SmokeConfig()};
  exp.Run();
  const obs::TxProvLog& log = exp.telemetry()->txprov()->Finish();

  const auto a = analysis::DecomposeLatencyStages(log);
  const auto b = analysis::DecomposeLatencyStages(log);
  EXPECT_EQ(a.committed_total, b.committed_total);
  EXPECT_EQ(a.depths, kDepths);
  EXPECT_GT(a.committed_total, 0u);
  EXPECT_EQ(analysis::RenderLatencyStages(a), analysis::RenderLatencyStages(b));
  EXPECT_EQ(analysis::RenderLatencyStagesCsv(a),
            analysis::RenderLatencyStagesCsv(b));

  // Log-only committed set: exactly the txs with a max-depth commit record.
  std::uint64_t max_depth_commits = 0;
  for (std::size_t i = 0; i < log.size(); ++i) {
    if (log.stage[i] == static_cast<std::uint8_t>(obs::TxStage::kCommitted) &&
        log.info[i] == kDepths.back())
      ++max_depth_commits;
  }
  EXPECT_EQ(a.committed_total, max_depth_commits);

  // The offline pool attribution synthesizes names from the selection
  // records; with every block minted by a rostered pool the bucket count
  // can't exceed the roster.
  EXPECT_LE(a.per_pool.size(), exp.config().pools.size());
}

}  // namespace
}  // namespace ethsim
