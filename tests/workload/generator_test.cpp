#include "workload/generator.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <unordered_map>
#include <utility>
#include <vector>

#include "chain/block_arena.hpp"
#include "eth/node.hpp"
#include "net/network.hpp"
#include "sim/simulator.hpp"

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

// A minimal frontend fleet with no miners: the generator submits into real
// EthNode txpools, but nothing is ever included, so the submission log is a
// pure function of the workload RNG streams.
struct Harness {
  explicit Harness(std::vector<net::Region> regions) {
    net = std::make_unique<net::Network>(simulator, Rng{99},
                                         net::NetworkParams{});
    Rng ids{7};
    for (std::size_t i = 0; i < regions.size(); ++i) {
      const net::HostId host = net->AddHost({regions[i], 1e9});
      nodes.push_back(std::make_unique<eth::EthNode>(
          simulator, *net, tx_store, dag, host, p2p::RandomNodeId(ids),
          eth::NodeConfig{}, ids.Fork(i)));
    }
  }

  std::vector<eth::EthNode*> Frontends() {
    std::vector<eth::EthNode*> out;
    for (auto& n : nodes) out.push_back(n.get());
    return out;
  }

  // Builds a generator, runs until `until`, returns it for inspection.
  WorkloadGenerator& Run(TxWorkloadParams params, WorkloadPlan plan,
                         Duration until, std::uint64_t seed = 1234) {
    generator = std::make_unique<WorkloadGenerator>(
        simulator, Rng{seed}, params, std::move(plan), Frontends());
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

std::vector<net::Region> Uniform(std::size_t n,
                                 net::Region r = net::Region::WesternEurope) {
  return std::vector<net::Region>(n, r);
}

// --- Legacy mode ------------------------------------------------------------

TEST(WorkloadLegacy, PerSenderNoncesAreMonotonic) {
  Harness h{Uniform(3)};
  TxWorkloadParams params;
  params.rate_per_sec = 5.0;
  params.accounts = 20;
  const auto& gen = h.Run(params, WorkloadPlan{}, Duration::Minutes(10));
  ASSERT_GT(gen.total_submitted(), 100u);

  // Submission records are appended in nonce-assignment order, so each
  // sender's nonces must read 0, 1, 2, ... in log order.
  std::unordered_map<Address, std::uint64_t> expect;
  for (const SubmittedTx& rec : gen.submitted())
    EXPECT_EQ(rec.nonce, expect[rec.sender]++) << "sender nonce out of order";
}

TEST(WorkloadLegacy, InversionDelaysTheLowerNonce) {
  Harness h{Uniform(3)};
  TxWorkloadParams params;
  params.rate_per_sec = 4.0;
  params.accounts = 50;
  params.burst_prob = 1.0;
  params.inversion_prob = 1.0;
  const auto& gen = h.Run(params, WorkloadPlan{}, Duration::Minutes(5));

  // Every submission is half of a burst pair: consecutive records share a
  // sender with nonces n, n+1. Under inversion_prob=1 the lower nonce is the
  // delayed one — its (scheduled) submission time is never earlier than the
  // follow-up's.
  const auto& log = gen.submitted();
  ASSERT_GE(log.size(), 40u);
  std::size_t pairs = 0;
  for (std::size_t i = 0; i + 1 < log.size(); i += 2) {
    ASSERT_TRUE(log[i].part_of_burst);
    ASSERT_EQ(log[i].sender, log[i + 1].sender);
    ASSERT_EQ(log[i].nonce + 1, log[i + 1].nonce);
    EXPECT_GE(log[i].submitted_at.micros(), log[i + 1].submitted_at.micros());
    ++pairs;
  }
  EXPECT_GT(pairs, 20u);
}

TEST(WorkloadLegacy, WithoutInversionTheFollowUpTrailsByMilliseconds) {
  Harness h{Uniform(3)};
  TxWorkloadParams params;
  params.rate_per_sec = 4.0;
  params.accounts = 50;
  params.burst_prob = 1.0;
  params.inversion_prob = 0.0;
  const auto& gen = h.Run(params, WorkloadPlan{}, Duration::Minutes(5));

  const auto& log = gen.submitted();
  ASSERT_GE(log.size(), 40u);
  for (std::size_t i = 0; i + 1 < log.size(); i += 2) {
    const auto gap = log[i + 1].submitted_at - log[i].submitted_at;
    EXPECT_GE(gap.micros(), Duration::Millis(1).micros());
    EXPECT_LE(gap.micros(), Duration::Millis(40).micros());
  }
}

TEST(WorkloadLegacy, ZeroRateSubmitsNothing) {
  Harness h{Uniform(2)};
  TxWorkloadParams params;
  params.rate_per_sec = 0.0;
  const auto& gen = h.Run(params, WorkloadPlan{}, Duration::Minutes(5));
  EXPECT_EQ(gen.total_submitted(), 0u);
}

// --- Plan mode --------------------------------------------------------------

TEST(WorkloadPlanMode, PerSenderNoncesAreMonotonicAcrossSources) {
  Harness h{Uniform(3)};
  WorkloadPlan plan;
  // Two sources sharing an account range: the global nonce map must keep
  // each sender's stream gapless even under contention.
  plan.Poisson("a", 3.0, 10);
  plan.Poisson("b", 3.0, 10);  // same [0, 10) account range
  const auto& gen = h.Run(TxWorkloadParams{}, plan, Duration::Minutes(10));
  ASSERT_GT(gen.total_submitted(), 200u);

  std::unordered_map<Address, std::uint64_t> expect;
  for (const SubmittedTx& rec : gen.submitted())
    EXPECT_EQ(rec.nonce, expect[rec.sender]++);
  EXPECT_GT(gen.source_submitted(0), 0u);
  EXPECT_GT(gen.source_submitted(1), 0u);
}

TEST(WorkloadPlanMode, DisabledSourceDrawsNothingAndPerturbsNothing) {
  // RNG-stream isolation: adding a rate-0 source must not change a single
  // draw of the active source, because a disabled source never touches its
  // Fork(i) stream.
  WorkloadPlan solo;
  solo.Poisson("a", 2.0, 20);
  WorkloadPlan with_dead;
  with_dead.Poisson("a", 2.0, 20).Poisson("dead", 0.0, 20);

  Harness h1{Uniform(3)};
  const auto& g1 = h1.Run(TxWorkloadParams{}, solo, Duration::Minutes(10));
  Harness h2{Uniform(3)};
  const auto& g2 = h2.Run(TxWorkloadParams{}, with_dead, Duration::Minutes(10));

  ASSERT_GT(g1.total_submitted(), 100u);
  ASSERT_EQ(g1.total_submitted(), g2.total_submitted());
  EXPECT_EQ(g2.source_submitted(1), 0u);
  for (std::size_t i = 0; i < g1.submitted().size(); ++i) {
    EXPECT_EQ(g1.submitted()[i].hash, g2.submitted()[i].hash);
    EXPECT_EQ(g1.submitted()[i].submitted_at.micros(),
              g2.submitted()[i].submitted_at.micros());
  }
}

TEST(WorkloadPlanMode, ActiveSourcesAreStreamIsolatedFromEachOther) {
  // A second *active* source with a disjoint account range must leave the
  // first source's submissions bit-identical (its own Fork stream, its own
  // nonce space).
  WorkloadPlan solo;
  solo.Poisson("a", 2.0, 20);
  WorkloadPlan both;
  both.Poisson("a", 2.0, 20).Poisson("b", 5.0, 20);
  both.last().account_offset = 1000;

  Harness h1{Uniform(3)};
  const auto& g1 = h1.Run(TxWorkloadParams{}, solo, Duration::Minutes(10));
  Harness h2{Uniform(3)};
  const auto& g2 = h2.Run(TxWorkloadParams{}, both, Duration::Minutes(10));

  std::vector<const SubmittedTx*> a_only;
  for (const SubmittedTx& rec : g2.submitted())
    if (rec.source == 0) a_only.push_back(&rec);
  ASSERT_EQ(a_only.size(), g1.total_submitted());
  for (std::size_t i = 0; i < a_only.size(); ++i) {
    EXPECT_EQ(a_only[i]->hash, g1.submitted()[i].hash);
    EXPECT_EQ(a_only[i]->submitted_at.micros(),
              g1.submitted()[i].submitted_at.micros());
  }
}

TEST(WorkloadPlanMode, IdenticalSeedsReproduceTheLogExactly) {
  WorkloadPlan plan;
  plan.Poisson("a", 2.0, 30);
  plan.last().zipf_exponent = 1.1;
  plan.FlashCrowd("f", 0.5, 10, TimePoint::FromMicros(120'000'000),
                  Duration::Minutes(2), 6.0);
  plan.last().account_offset = 100;

  Harness h1{Uniform(3)};
  const auto& g1 = h1.Run(TxWorkloadParams{}, plan, Duration::Minutes(8));
  Harness h2{Uniform(3)};
  const auto& g2 = h2.Run(TxWorkloadParams{}, plan, Duration::Minutes(8));

  ASSERT_GT(g1.total_submitted(), 50u);
  ASSERT_EQ(g1.total_submitted(), g2.total_submitted());
  for (std::size_t i = 0; i < g1.submitted().size(); ++i)
    EXPECT_EQ(g1.submitted()[i].hash, g2.submitted()[i].hash);
}

TEST(WorkloadPlanMode, RegionAffinityPicksOnlyMatchingFrontends) {
  Harness h{{net::Region::NorthAmerica, net::Region::NorthAmerica,
             net::Region::EasternAsia, net::Region::WesternEurope}};
  WorkloadPlan plan;
  plan.Poisson("na-only", 3.0, 20);
  plan.last().region = static_cast<std::int32_t>(net::Region::NorthAmerica);
  const auto& gen = h.Run(TxWorkloadParams{}, plan, Duration::Minutes(10));
  ASSERT_GT(gen.total_submitted(), 100u);
  for (const SubmittedTx& rec : gen.submitted())
    EXPECT_EQ(rec.region,
              static_cast<std::uint8_t>(net::Region::NorthAmerica));
}

TEST(WorkloadPlanMode, ZipfConcentratesTrafficOnHotAccounts) {
  Harness h{Uniform(3)};
  WorkloadPlan plan;
  plan.Poisson("zipf", 5.0, 50);
  plan.last().zipf_exponent = 1.5;
  const auto& gen = h.Run(TxWorkloadParams{}, plan, Duration::Minutes(20));
  ASSERT_GT(gen.total_submitted(), 1000u);

  std::unordered_map<Address, std::uint64_t> per_sender;
  for (const SubmittedTx& rec : gen.submitted()) ++per_sender[rec.sender];
  const std::uint64_t hottest = per_sender[AccountAddress(0)];
  // s=1.5 over 50 accounts gives the hot account ~38% of the mass; a uniform
  // spread would give 2%. Assert well above uniform, well below everything.
  EXPECT_GT(hottest, gen.total_submitted() / 5);
  EXPECT_LT(hottest, gen.total_submitted());
}

TEST(WorkloadPlanMode, FlashCrowdMultipliesTheRateInsideTheWindow) {
  Harness h{Uniform(3)};
  WorkloadPlan plan;
  plan.FlashCrowd("surge", 0.5, 20, TimePoint::FromMicros(300'000'000),
                  Duration::Seconds(120), 10.0);
  const auto& gen = h.Run(TxWorkloadParams{}, plan, Duration::Minutes(10));

  std::uint64_t before = 0, inside = 0;
  for (const SubmittedTx& rec : gen.submitted()) {
    const std::int64_t t = rec.submitted_at.micros();
    if (t < 120'000'000) ++before;  // same-length window, baseline rate
    if (t >= 300'000'000 && t < 420'000'000) ++inside;
  }
  // Baseline expectation 60 txs vs 600 in the surge: demand a clear factor.
  EXPECT_GT(inside, before * 3);
}

TEST(WorkloadPlanMode, ReplacementEscalatesPricesUpToTheCap) {
  Harness h{Uniform(3)};
  WorkloadPlan plan;
  plan.Poisson("stuck", 1.0, 20);
  plan.last().fee.replacement_deadline = Duration::Seconds(20);
  plan.last().fee.escalation_factor = 1.5;
  plan.last().fee.max_replacements = 3;
  const auto& gen = h.Run(TxWorkloadParams{}, plan, Duration::Minutes(10));

  // No miner runs, so nothing is ever included: every tx escalates through
  // all its replacements.
  EXPECT_GT(gen.replacements_issued(), 0u);
  EXPECT_GT(gen.tracked_in_flight(), 0u);

  std::map<std::pair<Address, std::uint64_t>, std::vector<const SubmittedTx*>>
      groups;
  for (const SubmittedTx& rec : gen.submitted())
    groups[{rec.sender, rec.nonce}].push_back(&rec);

  std::size_t escalated_groups = 0;
  for (const auto& [key, recs] : groups) {
    if (recs.size() == 1) continue;
    ++escalated_groups;
    ASSERT_LE(recs.size(), 1u + 3u);  // original + max_replacements
    for (std::size_t i = 0; i + 1 < recs.size(); ++i) {
      EXPECT_EQ(recs[i]->replacement, i);
      EXPECT_LT(recs[i]->gas_price, recs[i + 1]->gas_price)
          << "replacement must out-bid its predecessor";
      EXPECT_NE(recs[i]->hash, recs[i + 1]->hash);
    }
  }
  EXPECT_GT(escalated_groups, 10u);
}

TEST(WorkloadPlanMode, ClosedLoopClientsStopAfterOneTxWithoutInclusions) {
  Harness h{Uniform(3)};
  WorkloadPlan plan;
  plan.ClosedLoop("users", 8, Duration::Seconds(10), 0);
  const auto& gen = h.Run(TxWorkloadParams{}, plan, Duration::Minutes(10));

  // With no miner nothing commits, so each client submits exactly once and
  // then waits forever.
  EXPECT_EQ(gen.total_submitted(), 8u);
  EXPECT_EQ(gen.closed_loop_in_flight(), 8u);
  EXPECT_EQ(gen.closed_loop_completed(), 0u);
  for (const SubmittedTx& rec : gen.submitted()) {
    EXPECT_TRUE(rec.closed_loop);
    EXPECT_EQ(rec.nonce, 0u);
  }
}

}  // namespace
}  // namespace ethsim::workload
