// Statistical contracts of the plan-mode traffic generator, checked on
// fixed seeds with deliberately loose bounds: Zipf hot-account skew
// (chi-squared against uniform), the log-normal fee model's location and
// spread, and the closed-loop position when the run ends before any client
// can reach its commit depth.
#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <memory>
#include <utility>
#include <vector>

#include "chain/block_arena.hpp"
#include "eth/node.hpp"
#include "net/network.hpp"
#include "sim/simulator.hpp"
#include "workload/generator.hpp"

namespace ethsim::workload {
namespace {

chain::BlockArena& Arena() {
  static chain::BlockArena arena;  // outlives every harness in the suite
  return arena;
}

chain::BlockPtr MakeGenesis() {
  chain::Block b;
  b.header.number = 0;
  b.header.difficulty = 1000;
  b.Seal();
  return Arena().Adopt(std::move(b));
}

// Minerless frontend fleet (same shape as generator_test's harness): nothing
// is ever included, so the submission log is a pure function of the
// workload RNG streams.
struct Harness {
  explicit Harness(std::size_t frontends) {
    net = std::make_unique<net::Network>(simulator, Rng{99},
                                         net::NetworkParams{});
    Rng ids{7};
    for (std::size_t i = 0; i < frontends; ++i) {
      const net::HostId host =
          net->AddHost({net::Region::WesternEurope, 1e9});
      nodes.push_back(std::make_unique<eth::EthNode>(
          simulator, *net, tx_store, dag, host, p2p::RandomNodeId(ids),
          eth::NodeConfig{}, ids.Fork(i)));
    }
  }

  WorkloadGenerator& Run(WorkloadPlan plan, Duration until,
                         std::uint64_t seed = 1234) {
    std::vector<eth::EthNode*> frontends;
    for (auto& n : nodes) frontends.push_back(n.get());
    generator = std::make_unique<WorkloadGenerator>(
        simulator, Rng{seed}, TxWorkloadParams{}, std::move(plan), frontends);
    generator->Start();
    simulator.RunUntil(TimePoint::FromMicros(until.micros()));
    return *generator;
  }

  sim::Simulator simulator;
  std::unique_ptr<net::Network> net;
  chain::BlockPtr genesis = MakeGenesis();
  chain::BlockDag dag{genesis};
  chain::TxStore tx_store;
  std::vector<std::unique_ptr<eth::EthNode>> nodes;
  std::unique_ptr<WorkloadGenerator> generator;
};

// Pearson's X^2 of the per-sender counts against the uniform expectation.
double ChiSquaredVsUniform(const WorkloadGenerator& gen,
                           std::size_t accounts) {
  std::map<Address, std::uint64_t> counts;
  for (const SubmittedTx& rec : gen.submitted()) ++counts[rec.sender];
  EXPECT_LE(counts.size(), accounts);
  const double expected = static_cast<double>(gen.total_submitted()) /
                          static_cast<double>(accounts);
  double chi2 = 0.0;
  std::uint64_t seen = 0;
  for (const auto& [sender, count] : counts) {
    const double d = static_cast<double>(count) - expected;
    chi2 += d * d / expected;
    seen += count;
  }
  // Accounts that never fired still contribute their full expectation.
  chi2 += static_cast<double>(accounts - counts.size()) * expected;
  EXPECT_EQ(seen, gen.total_submitted());
  return chi2;
}

std::uint64_t TopSenderCount(const WorkloadGenerator& gen) {
  std::map<Address, std::uint64_t> counts;
  for (const SubmittedTx& rec : gen.submitted()) ++counts[rec.sender];
  std::uint64_t top = 0;
  for (const auto& [sender, count] : counts) top = std::max(top, count);
  return top;
}

TEST(WorkloadStats, ZipfSkewsTheAccountDistribution) {
  constexpr std::size_t kAccounts = 20;
  Harness zipf_h{3};
  WorkloadPlan zipf_plan;
  zipf_plan.Poisson("hot", 8.0, kAccounts);
  zipf_plan.last().zipf_exponent = 1.2;
  const auto& zipf_gen = zipf_h.Run(std::move(zipf_plan), Duration::Minutes(10));
  ASSERT_GT(zipf_gen.total_submitted(), 1000u);

  Harness flat_h{3};
  WorkloadPlan flat_plan;
  flat_plan.Poisson("flat", 8.0, kAccounts);  // zipf_exponent 0 = uniform
  const auto& flat_gen = flat_h.Run(std::move(flat_plan), Duration::Minutes(10));
  ASSERT_GT(flat_gen.total_submitted(), 1000u);

  // Under uniform draws X^2 ~ chi2(19) (mean 19); under Zipf 1.2 the hot
  // accounts blow it up by orders of magnitude. The thresholds are loose on
  // purpose — the seeds are fixed, the bounds just document the contract.
  const double zipf_chi2 = ChiSquaredVsUniform(zipf_gen, kAccounts);
  const double flat_chi2 = ChiSquaredVsUniform(flat_gen, kAccounts);
  EXPECT_GT(zipf_chi2, 5.0 * kAccounts);
  EXPECT_LT(flat_chi2, 3.0 * kAccounts);
  EXPECT_GT(zipf_chi2, 10.0 * flat_chi2);

  // The hottest account takes a multiple of the uniform share.
  const double uniform_share = 1.0 / kAccounts;
  const double top_share =
      static_cast<double>(TopSenderCount(zipf_gen)) /
      static_cast<double>(zipf_gen.total_submitted());
  EXPECT_GT(top_share, 3.0 * uniform_share);
}

TEST(WorkloadStats, LogNormalFeeModelHasTheConfiguredShape) {
  Harness h{3};
  WorkloadPlan plan;
  plan.Poisson("fees", 8.0, 40);
  plan.last().fee.gas_price_mu = 3.2;
  plan.last().fee.gas_price_sigma = 0.9;
  const auto& gen = h.Run(std::move(plan), Duration::Minutes(10));
  ASSERT_GT(gen.total_submitted(), 1000u);

  std::vector<double> prices;
  for (const SubmittedTx& rec : gen.submitted()) {
    ASSERT_GE(rec.gas_price, 1u);  // clamped to the positive fee floor
    prices.push_back(static_cast<double>(rec.gas_price));
  }
  std::sort(prices.begin(), prices.end());
  const double median = prices[prices.size() / 2];
  // Log-normal median = exp(mu) ~ 24.5; integer quantization and the fixed
  // seed keep it near but not exactly there.
  EXPECT_GT(median, 15.0);
  EXPECT_LT(median, 40.0);

  double log_sum = 0.0;
  for (const double p : prices) log_sum += std::log(p);
  const double log_mean = log_sum / static_cast<double>(prices.size());
  double log_var = 0.0;
  for (const double p : prices) {
    const double d = std::log(p) - log_mean;
    log_var += d * d;
  }
  log_var /= static_cast<double>(prices.size());
  // Loose windows around mu = 3.2, sigma = 0.9 (quantizing to integer gwei
  // biases the small-value tail).
  EXPECT_GT(log_mean, 2.8);
  EXPECT_LT(log_mean, 3.6);
  EXPECT_GT(std::sqrt(log_var), 0.6);
  EXPECT_LT(std::sqrt(log_var), 1.2);
}

TEST(WorkloadStats, ClosedLoopStallsWhenCommitDepthIsNeverReached) {
  constexpr std::size_t kClients = 6;
  Harness h{3};
  WorkloadPlan plan;
  plan.ClosedLoop("users", kClients, Duration::Seconds(1),
                  /*commit_depth=*/12);
  const auto& gen = h.Run(std::move(plan), Duration::Minutes(5));

  // No miners -> no inclusion -> no client ever reaches depth 12 before the
  // run ends: every client is stuck in flight on its first transaction.
  EXPECT_EQ(gen.total_submitted(), kClients);
  EXPECT_EQ(gen.closed_loop_completed(), 0u);
  EXPECT_EQ(gen.closed_loop_in_flight(), kClients);
  EXPECT_EQ(gen.replacements_issued(), 0u);
  for (const SubmittedTx& rec : gen.submitted()) {
    EXPECT_TRUE(rec.closed_loop);
    EXPECT_EQ(rec.nonce, 0u);  // everyone is still on their first tx
  }
}

}  // namespace
}  // namespace ethsim::workload
