// Property tests: block dissemination reaches every node across topology
// families, degrees, relay modes, and loss rates.
#include <gtest/gtest.h>

#include <memory>
#include <tuple>
#include <vector>

#include "chain/block_arena.hpp"
#include "eth/node.hpp"

namespace ethsim::eth {
namespace {

chain::BlockArena& Arena() {
  static chain::BlockArena arena;  // outlives every cluster in the suite
  return arena;
}

chain::BlockPtr MakeGenesis() {
  chain::Block b;
  b.header.difficulty = 1000;
  b.Seal();
  return Arena().Adopt(std::move(b));
}

chain::BlockPtr Child(const chain::BlockPtr& parent, std::uint64_t mix) {
  chain::Block b;
  b.header.parent_hash = parent->hash;
  b.header.number = parent->header.number + 1;
  b.header.timestamp = parent->header.timestamp + 13;
  b.header.difficulty = 1000;
  b.header.mix_seed = mix;
  b.Seal();
  return Arena().Adopt(std::move(b));
}

struct World {
  World(std::size_t n, std::size_t degree, double drop, RelayMode mode,
        std::uint64_t seed) {
    net::NetworkParams params;
    params.drop_prob = drop;
    network = std::make_unique<net::Network>(simulator, Rng{seed}, params);
    Rng ids{seed ^ 0x1234};
    NodeConfig cfg;
    cfg.max_peers = degree * 3;
    cfg.relay_mode = mode;
    for (std::size_t i = 0; i < n; ++i) {
      const net::HostId host =
          network->AddHost({net::Region::WesternEurope, 1e9});
      nodes.push_back(std::make_unique<EthNode>(
          simulator, *network, tx_store, dag, host, p2p::RandomNodeId(ids),
          cfg, ids.Fork(i)));
    }
    // Connected topology: ring backbone + random chords up to `degree`.
    for (std::size_t i = 0; i < n; ++i)
      EthNode::Connect(*nodes[i], *nodes[(i + 1) % n]);
    Rng topo{seed ^ 0x9999};
    for (std::size_t i = 0; i < n; ++i)
      while (nodes[i]->peer_count() < degree) {
        const std::size_t j = topo.NextBounded(n);
        if (j == i) continue;
        if (!EthNode::Connect(*nodes[i], *nodes[j])) break;
      }
  }

  sim::Simulator simulator;
  std::unique_ptr<net::Network> network;
  chain::BlockPtr genesis = MakeGenesis();
  chain::BlockDag dag{genesis};
  chain::TxStore tx_store;
  std::vector<std::unique_ptr<EthNode>> nodes;
};

using Params = std::tuple<std::size_t /*degree*/, double /*drop*/,
                          RelayMode, std::uint64_t /*seed*/>;

class GossipReachability : public ::testing::TestWithParam<Params> {};

TEST_P(GossipReachability, EveryNodeConvergesToTheTip) {
  const auto [degree, drop, mode, seed] = GetParam();
  World world{24, degree, drop, mode, seed};

  chain::BlockPtr tip = world.genesis;
  for (int i = 0; i < 6; ++i) {
    tip = Child(tip, static_cast<std::uint64_t>(i));
    world.nodes[static_cast<std::size_t>(i) % world.nodes.size()]
        ->InjectMinedBlock(tip);
    world.simulator.RunUntil(world.simulator.Now() + Duration::Seconds(13));
  }
  world.simulator.RunUntil(world.simulator.Now() + Duration::Seconds(120));

  std::size_t synced = 0;
  for (const auto& node : world.nodes)
    synced += node->tree().head_hash() == tip->hash;

  if (drop == 0.0) {
    EXPECT_EQ(synced, world.nodes.size());
  } else if (drop <= 0.15) {
    // With moderate loss, gossip redundancy reaches essentially everyone.
    EXPECT_GE(synced, world.nodes.size() - 2);
  } else {
    // Extreme loss: gossip alone recovers most nodes (fetch retries heal
    // chains as later blocks arrive); full recovery would need the periodic
    // header sync real clients run, which the relay layer doesn't model.
    EXPECT_GE(synced, world.nodes.size() * 85 / 100);
  }
}

INSTANTIATE_TEST_SUITE_P(
    DegreesDropsModes, GossipReachability,
    ::testing::Values(
        // Degree sweep, lossless, default relay.
        Params{2, 0.0, RelayMode::kSqrtPush, 1},
        Params{4, 0.0, RelayMode::kSqrtPush, 2},
        Params{8, 0.0, RelayMode::kSqrtPush, 3},
        Params{12, 0.0, RelayMode::kSqrtPush, 4},
        // Relay-mode sweep.
        Params{8, 0.0, RelayMode::kPushAll, 5},
        Params{8, 0.0, RelayMode::kAnnounceOnly, 6},
        // Loss sweep (redundancy as fault tolerance, SIII-A2).
        Params{8, 0.05, RelayMode::kSqrtPush, 7},
        Params{8, 0.15, RelayMode::kSqrtPush, 8},
        Params{12, 0.25, RelayMode::kSqrtPush, 9}));

}  // namespace
}  // namespace ethsim::eth
