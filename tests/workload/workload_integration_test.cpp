// Full-pipeline workload tests: plan-mode runs through the real experiment
// (miners included), closed-loop completion, demand reconciliation against
// analysis/commit, and the config-validation gate.
#include <gtest/gtest.h>

#include <stdexcept>
#include <unordered_map>

#include "analysis/commit.hpp"
#include "analysis/demand.hpp"
#include "check/oracles.hpp"
#include "core/experiment.hpp"

namespace ethsim {
namespace {

core::ExperimentConfig PlanConfig() {
  core::ExperimentConfig cfg = core::presets::SmallStudy(30);
  cfg.duration = Duration::Minutes(20);
  cfg.workload_plan.Poisson("base", 0.8, 100);
  cfg.workload_plan.Diurnal("na", 0.3, 40, net::Region::NorthAmerica);
  cfg.workload_plan.last().account_offset = 100;
  cfg.workload_plan.ClosedLoop("users", 10, Duration::Seconds(20), 1);
  cfg.workload_plan.last().account_offset = 200;
  return cfg;
}

TEST(WorkloadExperiment, ClosedLoopClientsCompleteAndResubmit) {
  core::Experiment exp{PlanConfig()};
  exp.Run();
  const auto& gen = exp.workload();

  // With real mining the clients' txs commit, so the loop turns over: every
  // client finishes at least one cycle, and at most `clients` are in flight.
  EXPECT_GT(gen.closed_loop_completed(), 10u);
  EXPECT_LE(gen.closed_loop_in_flight(), 10u);
  EXPECT_GT(gen.source_submitted(2), 10u);
  EXPECT_GT(gen.source_included(2), 0u);

  // Per-sender nonce streams stay gapless across the whole mixed plan.
  std::unordered_map<Address, std::uint64_t> expect;
  for (const workload::SubmittedTx& rec : gen.submitted()) {
    if (rec.replacement != 0) continue;  // re-issues reuse their nonce
    EXPECT_EQ(rec.nonce, expect[rec.sender]++);
  }
}

TEST(WorkloadExperiment, DemandReconcilesWithCommitAnalysis) {
  core::ExperimentConfig cfg = PlanConfig();
  cfg.workload_plan.sources[0].fee.replacement_deadline =
      Duration::Seconds(90);
  core::Experiment exp{cfg};
  exp.Run();
  const auto inputs = check::MakeStudyInputs(exp);

  const std::vector<std::uint64_t> depths{0, 3};
  const auto commit = analysis::TransactionCommitTimes(inputs, depths);
  const auto demand = analysis::AnalyzeDemand(
      inputs, exp.workload().submitted(), exp.workload().plan(), depths);

  // The demand table's committed column uses the commit analysis' exact
  // eligibility rule, so the totals must agree and every committed tx must
  // trace back to a submission record.
  EXPECT_EQ(demand.committed_total, commit.committed_txs);
  EXPECT_EQ(demand.unattributed_committed, 0u);
  EXPECT_EQ(demand.offered_total, exp.workload().total_submitted());
  ASSERT_EQ(demand.per_source.size(), 3u);
  std::uint64_t source_sum = 0;
  for (const auto& row : demand.per_source) source_sum += row.committed;
  EXPECT_EQ(source_sum, demand.committed_total);
  EXPECT_GT(demand.included_total, 0u);

  // The rendered report carries every source row.
  const std::string report = analysis::RenderDemand(demand);
  EXPECT_NE(report.find("base"), std::string::npos);
  EXPECT_NE(report.find("users"), std::string::npos);
}

TEST(WorkloadExperiment, LegacyRunGetsOneSyntheticDemandRow) {
  core::ExperimentConfig cfg = core::presets::SmallStudy(30);
  cfg.duration = Duration::Minutes(10);
  cfg.workload.rate_per_sec = 1.0;
  core::Experiment exp{cfg};
  exp.Run();
  const auto inputs = check::MakeStudyInputs(exp);
  const auto demand = analysis::AnalyzeDemand(
      inputs, exp.workload().submitted(), exp.workload().plan(), {0, 3});
  ASSERT_EQ(demand.per_source.size(), 1u);
  EXPECT_EQ(demand.per_source[0].name, "legacy");
  EXPECT_EQ(demand.offered_total, exp.workload().total_submitted());
  EXPECT_EQ(demand.committed_total,
            analysis::TransactionCommitTimes(inputs, {0, 3}).committed_txs);
}

TEST(WorkloadExperiment, PlanRunsAreDeterministic) {
  core::Experiment a{PlanConfig()};
  core::Experiment b{PlanConfig()};
  a.Run();
  b.Run();
  ASSERT_EQ(a.workload().total_submitted(), b.workload().total_submitted());
  for (std::size_t i = 0; i < a.workload().submitted().size(); ++i)
    EXPECT_EQ(a.workload().submitted()[i].hash,
              b.workload().submitted()[i].hash);
  EXPECT_EQ(a.reference_tree().head_hash(), b.reference_tree().head_hash());
}

// --- ExperimentConfig::Validate --------------------------------------------

TEST(ConfigValidate, AcceptsEveryPreset) {
  EXPECT_EQ(core::presets::SmallStudy(30).Validate(), "");
  EXPECT_EQ(PlanConfig().Validate(), "");
}

TEST(ConfigValidate, RejectsNegativeBurstAndInversionProbabilities) {
  core::ExperimentConfig cfg = core::presets::SmallStudy(30);
  cfg.workload.burst_prob = -0.1;
  EXPECT_NE(cfg.Validate().find("burst_prob"), std::string::npos);
  cfg.workload.burst_prob = 0.3;
  cfg.workload.inversion_prob = 1.5;
  EXPECT_NE(cfg.Validate().find("inversion_prob"), std::string::npos);
}

TEST(ConfigValidate, RejectsMalformedPlans) {
  core::ExperimentConfig cfg = core::presets::SmallStudy(30);
  cfg.workload_plan.Poisson("bad", -1.0, 10);
  EXPECT_NE(cfg.Validate().find("workload_plan"), std::string::npos);
}

// Each of these used to pass Validate() and then crash, or run on NaN
// alias tables, in a build without asserts.
TEST(ConfigValidate, RejectsEmptyPools) {
  core::ExperimentConfig cfg = core::presets::SmallStudy(30);
  cfg.pools.clear();
  EXPECT_NE(cfg.Validate().find("pools"), std::string::npos);
}

TEST(ConfigValidate, RejectsAPoolWithoutGateways) {
  core::ExperimentConfig cfg = core::presets::SmallStudy(30);
  cfg.pools[3].gateways.clear();
  EXPECT_NE(cfg.Validate().find("gateway"), std::string::npos);
}

TEST(ConfigValidate, RejectsNegativeOrAllZeroHashrateShares) {
  core::ExperimentConfig cfg = core::presets::SmallStudy(30);
  cfg.pools[1].hashrate_share = -0.1;
  EXPECT_NE(cfg.Validate().find("hashrate_share"), std::string::npos);
  for (miner::PoolSpec& pool : cfg.pools) pool.hashrate_share = 0;
  EXPECT_NE(cfg.Validate().find("hashrate_share"), std::string::npos);
}

TEST(ConfigValidate, RejectsNegativeOrAllZeroGatewayWeights) {
  core::ExperimentConfig cfg = core::presets::SmallStudy(30);
  cfg.pools[0].gateways[0].weight = -1;
  EXPECT_NE(cfg.Validate().find("gateway weights"), std::string::npos);
  for (miner::GatewaySpec& gw : cfg.pools[0].gateways) gw.weight = 0;
  EXPECT_NE(cfg.Validate().find("gateway weights"), std::string::npos);
}

TEST(ConfigValidate, RejectsNegativeOrAllZeroRegionWeights) {
  core::ExperimentConfig cfg = core::presets::SmallStudy(30);
  cfg.node_region_weights[2] = -0.5;
  EXPECT_NE(cfg.Validate().find("node_region_weights"), std::string::npos);
  cfg.node_region_weights.fill(0);
  EXPECT_NE(cfg.Validate().find("node_region_weights"), std::string::npos);
}

TEST(ConfigValidate, RejectsFewerThanTwoNodes) {
  core::ExperimentConfig cfg = core::presets::SmallStudy(0);
  cfg.vantages.clear();
  cfg.pools.resize(1);
  cfg.pools[0].gateways.resize(1);
  EXPECT_NE(cfg.Validate().find("at least 2 nodes"), std::string::npos);
  cfg.peer_nodes = 1;
  EXPECT_EQ(cfg.Validate(), "");
}

// A FifoIdSet holds at most 65,535 ids. Each cap is checked in all three node
// configs, and the message names the config and the field.
void ExpectCapLimited(std::size_t eth::NodeConfig::*cap,
                      const std::string& field) {
  using Config = core::ExperimentConfig;
  const std::pair<const char*, eth::NodeConfig Config::*> configs[] = {
      {"node_config", &Config::node_config},
      {"observer_config", &Config::observer_config},
      {"gateway_config", &Config::gateway_config}};
  for (const auto& [name, config] : configs) {
    core::ExperimentConfig cfg = core::presets::SmallStudy(30);
    (cfg.*config).*cap = 65'535;
    EXPECT_EQ(cfg.Validate(), "") << name;
    (cfg.*config).*cap = 65'536;
    EXPECT_EQ(cfg.Validate(),
              std::string(name) + "." + field + " must be <= 65535");
  }
}

TEST(ConfigValidate, RejectsKnownTxsCapAbove65535) {
  ExpectCapLimited(&eth::NodeConfig::known_txs_cap, "known_txs_cap");
}

TEST(ConfigValidate, RejectsKnownBlocksCapAbove65535) {
  ExpectCapLimited(&eth::NodeConfig::known_blocks_cap, "known_blocks_cap");
}

TEST(ConfigValidate, RejectsSeenTxsCapAbove65535) {
  ExpectCapLimited(&eth::NodeConfig::seen_txs_cap, "seen_txs_cap");
}

TEST(ConfigValidate, RunRefusesAnInvalidConfig) {
  core::ExperimentConfig cfg = core::presets::SmallStudy(30);
  cfg.duration = Duration::Minutes(1);
  cfg.workload.burst_prob = -0.5;
  core::Experiment exp{cfg};
  EXPECT_THROW(exp.Run(), std::invalid_argument);
}

}  // namespace
}  // namespace ethsim
