#include "miner/mining.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <unordered_map>

#include "chain/block_arena.hpp"
#include "net/network.hpp"

namespace ethsim::miner {
namespace {

using namespace ethsim::literals;

chain::BlockArena& Arena() {
  static chain::BlockArena arena;  // outlives every fixture in the suite
  return arena;
}

chain::BlockPtr MakeGenesis(std::uint64_t difficulty) {
  chain::Block b;
  b.header.number = 0;
  b.header.difficulty = difficulty;
  b.Seal();
  return Arena().Adopt(std::move(b));
}

// Two pools with very different shares, one gateway each, fully meshed with
// a few relay nodes.
struct MiningFixture : ::testing::Test {
  // Must be high enough that difficulty = hashrate * 13.3 clears Ethereum's
  // minimum-difficulty clamp (131,072).
  static constexpr double kHashrate = 1e6;  // units/s

  MiningFixture() {
    params.target_interval = Duration::Seconds(13.3);
    params.total_hashrate = kHashrate;
    genesis = MakeGenesis(
        static_cast<std::uint64_t>(kHashrate * params.target_interval.seconds()));
    net = std::make_unique<net::Network>(simulator, Rng{5}, net::NetworkParams{});
  }

  // The world DAG roots at the genesis in place when the first node joins.
  eth::EthNode* AddNode(net::Region region) {
    if (!dag) dag.emplace(genesis);
    const net::HostId host = net->AddHost({region, 1e9});
    Rng ids{static_cast<std::uint64_t>(nodes.size()) + 1000};
    nodes.push_back(std::make_unique<eth::EthNode>(
        simulator, *net, tx_store, *dag, host, p2p::RandomNodeId(ids),
        eth::NodeConfig{}, Rng{nodes.size() + 77}));
    return nodes.back().get();
  }

  void MeshAll() {
    for (std::size_t i = 0; i < nodes.size(); ++i)
      for (std::size_t j = i + 1; j < nodes.size(); ++j)
        eth::EthNode::Connect(*nodes[i], *nodes[j]);
  }

  std::vector<PoolSpec> TwoPools(double share_a = 0.8, PoolPolicy policy_a = {},
                                 PoolPolicy policy_b = {}) {
    PoolSpec a;
    a.name = "A";
    a.hashrate_share = share_a;
    a.coinbase = PoolCoinbase("A");
    a.gateways = {{net::Region::EasternAsia, 1.0}};
    a.policy = policy_a;
    PoolSpec b;
    b.name = "B";
    b.hashrate_share = 1.0 - share_a;
    b.coinbase = PoolCoinbase("B");
    b.gateways = {{net::Region::WesternEurope, 1.0}};
    b.policy = policy_b;
    return {a, b};
  }

  void RunFor(Duration d) { simulator.RunUntil(simulator.Now() + d); }

  sim::Simulator simulator;
  std::unique_ptr<net::Network> net;
  chain::BlockPtr genesis;
  std::optional<chain::BlockDag> dag;
  chain::TxStore tx_store;
  std::vector<std::unique_ptr<eth::EthNode>> nodes;
  MiningParams params;
};

TEST_F(MiningFixture, ProducesBlocksAtRoughlyTargetInterval) {
  auto pools = TwoPools();
  MiningCoordinator coordinator{simulator, Arena(), Rng{1}, params, pools};
  coordinator.AddGateway(0, AddNode(net::Region::EasternAsia));
  coordinator.AddGateway(1, AddNode(net::Region::WesternEurope));
  MeshAll();
  coordinator.Start();
  RunFor(Duration::Hours(2));

  const double hours = 2.0;
  const double expected = hours * 3600.0 / 13.3;
  EXPECT_NEAR(static_cast<double>(coordinator.blocks_found()), expected,
              expected * 0.25);
  // The chain actually grew (blocks were released and imported).
  EXPECT_GT(coordinator.reference_tree().head_number(), expected * 0.5);
}

TEST_F(MiningFixture, WinnerDistributionFollowsShares) {
  auto pools = TwoPools(0.8);
  MiningCoordinator coordinator{simulator, Arena(), Rng{2}, params, pools};
  coordinator.AddGateway(0, AddNode(net::Region::EasternAsia));
  coordinator.AddGateway(1, AddNode(net::Region::WesternEurope));
  MeshAll();
  coordinator.Start();
  RunFor(Duration::Hours(8));

  std::size_t a = 0, b = 0;
  for (const auto& record : coordinator.minted())
    (record.pool_index == 0 ? a : b) += 1;
  ASSERT_GT(a + b, 1000u);
  EXPECT_NEAR(static_cast<double>(a) / static_cast<double>(a + b), 0.8, 0.04);
}

TEST_F(MiningFixture, MinersBuildOnEachOthersBlocks) {
  auto pools = TwoPools(0.5);
  MiningCoordinator coordinator{simulator, Arena(), Rng{3}, params, pools};
  coordinator.AddGateway(0, AddNode(net::Region::EasternAsia));
  coordinator.AddGateway(1, AddNode(net::Region::WesternEurope));
  for (int i = 0; i < 4; ++i) AddNode(net::Region::CentralEurope);
  MeshAll();
  coordinator.Start();
  RunFor(Duration::Hours(1));

  // Both coinbases must appear in the canonical chain.
  const auto chain_blocks = coordinator.reference_tree().CanonicalChain();
  ASSERT_GT(chain_blocks.size(), 50u);
  std::unordered_map<Address, int> by_miner;
  for (const auto& blk : chain_blocks) ++by_miner[blk->header.miner];
  EXPECT_GE(by_miner.size(), 2u);
}

TEST_F(MiningFixture, EmptyBlockPolicyProducesEmptyBlocks) {
  PoolPolicy always_empty;
  always_empty.empty_block_rate = 1.0;
  auto pools = TwoPools(0.5, always_empty, PoolPolicy{});
  MiningCoordinator coordinator{simulator, Arena(), Rng{4}, params, pools};
  eth::EthNode* gw_a = AddNode(net::Region::EasternAsia);
  eth::EthNode* gw_b = AddNode(net::Region::WesternEurope);
  coordinator.AddGateway(0, gw_a);
  coordinator.AddGateway(1, gw_b);
  MeshAll();

  // Keep the pools non-trivially supplied with txs.
  for (int i = 0; i < 50; ++i) {
    Address sender;
    sender.bytes[0] = static_cast<std::uint8_t>(i + 1);
    gw_b->SubmitTransaction(chain::MakeTransaction(sender, 0, sender, 1, 2));
  }
  coordinator.Start();
  RunFor(Duration::Hours(1));

  int empty_a = 0, nonempty_a = 0, nonempty_b = 0;
  for (const auto& record : coordinator.minted()) {
    if (record.pool_index == 0) {
      (record.block->IsEmpty() ? empty_a : nonempty_a) += 1;
      EXPECT_TRUE(record.deliberate_empty);
    } else if (!record.block->IsEmpty()) {
      ++nonempty_b;
    }
  }
  EXPECT_GT(empty_a, 10);
  EXPECT_EQ(nonempty_a, 0);
  EXPECT_GT(nonempty_b, 0) << "pool B should have packed the submitted txs";
}

TEST_F(MiningFixture, OneMinerForkPolicyEmitsSiblings) {
  PoolPolicy forky;
  forky.one_miner_fork_same_txset_rate = 0.5;
  forky.one_miner_fork_distinct_txset_rate = 0.0;
  auto pools = TwoPools(0.9, forky, PoolPolicy{});
  MiningCoordinator coordinator{simulator, Arena(), Rng{6}, params, pools};
  coordinator.AddGateway(0, AddNode(net::Region::EasternAsia));
  coordinator.AddGateway(0, AddNode(net::Region::NorthAmerica));  // 2nd gateway
  coordinator.AddGateway(1, AddNode(net::Region::WesternEurope));
  MeshAll();
  coordinator.Start();
  RunFor(Duration::Hours(1));

  int primaries = 0, siblings = 0, same_txset = 0;
  std::unordered_map<Hash32, const MintRecord*> by_hash;
  for (const auto& record : coordinator.minted()) by_hash[record.block->hash] = &record;
  for (const auto& record : coordinator.minted()) {
    if (!record.is_fork_sibling) {
      ++primaries;
      continue;
    }
    ++siblings;
    same_txset += record.same_txset_as_primary;
    // The sibling must pair with a primary at the same height.
    const auto it = by_hash.find(record.primary_sibling);
    ASSERT_NE(it, by_hash.end());
    EXPECT_EQ(it->second->block->header.number, record.block->header.number);
    EXPECT_NE(it->second->block->hash, record.block->hash);
  }
  ASSERT_GT(siblings, 20);
  EXPECT_EQ(same_txset, siblings);  // same-txset-only policy
  EXPECT_NEAR(static_cast<double>(siblings) / primaries, 0.5 * 0.9, 0.15);
}

TEST_F(MiningFixture, DifficultyAdjustmentKeepsPace) {
  // Start with difficulty 4x too low: adjustment must pull the interval back
  // up toward the target.
  auto pools = TwoPools();
  genesis = MakeGenesis(static_cast<std::uint64_t>(kHashrate * 13.3 / 4.0));
  MiningCoordinator coordinator{simulator, Arena(), Rng{8}, params, pools};
  coordinator.AddGateway(0, AddNode(net::Region::EasternAsia));
  coordinator.AddGateway(1, AddNode(net::Region::WesternEurope));
  MeshAll();
  coordinator.Start();
  // EIP-100 moves difficulty by ~1/2048 per block; closing a 4x gap needs
  // ~2,800 blocks, so run long enough to converge and then some.
  RunFor(Duration::Hours(16));

  const auto chain_blocks = coordinator.reference_tree().CanonicalChain();
  ASSERT_GT(chain_blocks.size(), 3000u);
  // Interval over the last 200 blocks ~ target (within noise).
  const auto& tail = chain_blocks;
  const std::size_t n = tail.size();
  const double span =
      static_cast<double>(tail[n - 1]->header.timestamp -
                          tail[n - 201]->header.timestamp);
  EXPECT_NEAR(span / 200.0, 13.3, 3.0);
}

TEST_F(MiningFixture, MintRecordsCoverEveryReferenceTreeBlock) {
  auto pools = TwoPools(0.6);
  MiningCoordinator coordinator{simulator, Arena(), Rng{9}, params, pools};
  coordinator.AddGateway(0, AddNode(net::Region::EasternAsia));
  coordinator.AddGateway(1, AddNode(net::Region::WesternEurope));
  MeshAll();
  coordinator.Start();
  RunFor(Duration::Hours(1));

  std::unordered_map<Hash32, bool> minted;
  for (const auto& record : coordinator.minted())
    minted[record.block->hash] = true;
  for (const auto& blk : coordinator.reference_tree().AllBlocks()) {
    if (blk->hash == coordinator.reference_tree().genesis_hash()) continue;
    EXPECT_TRUE(minted.contains(blk->hash));
  }
}

}  // namespace
}  // namespace ethsim::miner
