#include "core/experiment.hpp"

#include <gtest/gtest.h>

namespace ethsim::core {
namespace {

ExperimentConfig TinyConfig() {
  ExperimentConfig cfg = presets::SmallStudy(30);
  cfg.duration = Duration::Minutes(10);
  cfg.workload.rate_per_sec = 1.0;
  return cfg;
}

TEST(ExperimentTest, RunsAndProducesBlocks) {
  Experiment exp{TinyConfig()};
  exp.Run();
  // ~45 blocks expected in 10 min at 13.3s.
  EXPECT_GT(exp.minted().size(), 20u);
  EXPECT_GT(exp.reference_tree().head_number(), 7'479'573u + 15);
}

TEST(ExperimentTest, ObserversSeeBlocksAndTxs) {
  Experiment exp{TinyConfig()};
  exp.Run();
  ASSERT_EQ(exp.observers().size(), 4u);
  for (const auto& obs : exp.observers()) {
    EXPECT_GT(obs->first_block_arrival().size(), 15u) << obs->name();
    EXPECT_GT(obs->first_tx_arrival().size(), 100u) << obs->name();
    EXPECT_GT(obs->imports().size(), 15u) << obs->name();
  }
  EXPECT_GT(exp.workload().total_submitted(), 300u);
}

TEST(ExperimentTest, ObserversConnectManyPeers) {
  ExperimentConfig cfg = TinyConfig();
  Experiment exp{cfg};
  exp.Run();
  for (const auto& obs : exp.observers())
    EXPECT_GE(obs->node()->peer_count(), cfg.vantages[0].connect_peers)
        << obs->name();
}

TEST(ExperimentTest, DeterministicForSameSeed) {
  Experiment a{TinyConfig()};
  Experiment b{TinyConfig()};
  a.Run();
  b.Run();
  ASSERT_EQ(a.minted().size(), b.minted().size());
  for (std::size_t i = 0; i < a.minted().size(); ++i) {
    EXPECT_EQ(a.minted()[i].block->hash, b.minted()[i].block->hash);
    EXPECT_EQ(a.minted()[i].pool_index, b.minted()[i].pool_index);
  }
  EXPECT_EQ(a.reference_tree().head_hash(), b.reference_tree().head_hash());
  // Observer logs identical too.
  ASSERT_EQ(a.observers().size(), b.observers().size());
  EXPECT_EQ(a.observers()[0]->block_arrivals().size(),
            b.observers()[0]->block_arrivals().size());
}

TEST(ExperimentTest, DifferentSeedsDiverge) {
  ExperimentConfig cfg_a = TinyConfig();
  ExperimentConfig cfg_b = TinyConfig();
  cfg_b.seed = 43;
  Experiment a{cfg_a};
  Experiment b{cfg_b};
  a.Run();
  b.Run();
  // Head hashes virtually certainly differ.
  EXPECT_NE(a.reference_tree().head_hash(), b.reference_tree().head_hash());
}

TEST(ExperimentTest, NodesConvergeOnOneChain) {
  Experiment exp{TinyConfig()};
  exp.Run();
  // After the run, let in-flight traffic settle: count distinct heads among
  // all nodes; the overwhelming majority must agree (a tiny tail can be
  // mid-import at cutoff).
  std::unordered_map<Hash32, int> heads;
  for (const auto& node : exp.nodes()) ++heads[node->tree().head_hash()];
  int best = 0;
  for (const auto& [hash, count] : heads) best = std::max(best, count);
  EXPECT_GT(best, static_cast<int>(exp.nodes().size() * 9 / 10));
}

TEST(ExperimentTest, MintedPoolsFollowShares) {
  ExperimentConfig cfg = TinyConfig();
  cfg.duration = Duration::Minutes(45);
  Experiment exp{cfg};
  exp.Run();
  std::vector<std::size_t> counts(cfg.pools.size(), 0);
  for (const auto& record : exp.minted()) ++counts[record.pool_index];
  // Ethermine + Sparkpool together are ~48% of hashrate: expect them to
  // dominate (loose check at this sample size).
  const double big_two = static_cast<double>(counts[0] + counts[1]);
  EXPECT_GT(big_two / static_cast<double>(exp.minted().size()), 0.30);
}

TEST(ExperimentTest, DefaultPeersPresetUsesOneVantageAt25Peers) {
  ExperimentConfig cfg = presets::DefaultPeersStudy();
  cfg.peer_nodes = 40;
  cfg.duration = Duration::Minutes(5);
  Experiment exp{cfg};
  exp.Run();
  ASSERT_EQ(exp.observers().size(), 1u);
  EXPECT_EQ(exp.observers()[0]->node()->peer_count(), 25u);
}

// Summed known_cache_entries() of the fleet below, as produced by the
// hash-keyed caches the id-based ones replaced.
constexpr std::size_t kPinnedKnownEntries = 3'043'749;

TEST(ExperimentTest, KnownCacheEntriesMatchPinnedFleetSum) {
  // At the paper's 7.9 tx/s every known_txs cache reaches its cap and
  // evicts, so a change to the caches' eviction or size accounting moves
  // this sum even where the digest happens not to move.
  ExperimentConfig cfg = presets::SmallStudy(40);
  cfg.duration = Duration::Minutes(5);
  cfg.workload.rate_per_sec = 7.9;
  Experiment exp{cfg};
  exp.Run();
  std::size_t known = 0;
  for (const auto& node : exp.nodes()) known += node->known_cache_entries();
  EXPECT_EQ(known, kPinnedKnownEntries);
}

// FNV-1a over ConnectedTo for every ordered node pair, then every node's
// peer_count(), of the SmallStudy(300) overlay as BuildTopology wires it.
std::uint64_t OverlayHash(std::uint64_t seed) {
  ExperimentConfig cfg = presets::SmallStudy(300);
  cfg.seed = seed;
  cfg.duration = Duration::Millis(1);
  Experiment exp{cfg};
  exp.Run();
  std::uint64_t hash = 14695981039346656037ull;
  const auto mix = [&](std::uint64_t value) {
    hash = (hash ^ value) * 1099511628211ull;
  };
  const auto& nodes = exp.nodes();
  for (const auto& a : nodes)
    for (const auto& b : nodes)
      if (a != b) mix(a->ConnectedTo(*b) ? 1 : 0);
  for (const auto& node : nodes) mix(node->peer_count());
  return hash;
}

// Produced by the per-node routing tables that Registry replaced.
constexpr std::uint64_t kPinnedOverlaySeed1 = 14804637363282144281ull;
constexpr std::uint64_t kPinnedOverlaySeed7919 = 7072069230879811327ull;

TEST(ExperimentTest, OverlayMatchesPinnedAdjacency) {
  EXPECT_EQ(OverlayHash(1), kPinnedOverlaySeed1);
  EXPECT_EQ(OverlayHash(7919), kPinnedOverlaySeed7919);
}

TEST(ExperimentTest, RunIsIdempotent) {
  Experiment exp{TinyConfig()};
  exp.Run();
  const auto minted = exp.minted().size();
  exp.Run();  // no-op
  EXPECT_EQ(exp.minted().size(), minted);
}

}  // namespace
}  // namespace ethsim::core
