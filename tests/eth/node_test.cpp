#include "eth/node.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "analysis/dissemination.hpp"
#include "chain/block_arena.hpp"
#include "obs/telemetry.hpp"

namespace ethsim::eth {
namespace {

using namespace ethsim::literals;

chain::BlockArena& Arena() {
  static chain::BlockArena arena;  // outlives every cluster in the suite
  return arena;
}

chain::BlockPtr MakeGenesis() {
  chain::Block b;
  b.header.number = 0;
  b.header.difficulty = 1000;
  b.Seal();
  return Arena().Adopt(std::move(b));
}

Address Addr(std::uint8_t tag) {
  Address a;
  a.bytes[19] = tag;
  return a;
}

chain::BlockPtr Child(const chain::BlockPtr& parent, std::uint64_t mix = 0,
                      std::vector<chain::Transaction> txs = {},
                      std::uint64_t difficulty = 1000) {
  chain::Block b;
  b.header.parent_hash = parent->hash;
  b.header.number = parent->header.number + 1;
  b.header.timestamp = parent->header.timestamp + 13;
  b.header.difficulty = difficulty;
  b.header.miner = Addr(1);
  b.header.mix_seed = mix;
  b.transactions = std::move(txs);
  b.Seal();
  return Arena().Adopt(std::move(b));
}

// A small fully-wired test cluster.
struct Cluster {
  explicit Cluster(std::size_t n, NodeConfig cfg = {},
                   net::Region region = net::Region::WesternEurope) {
    net = std::make_unique<net::Network>(simulator, Rng{99}, net::NetworkParams{});
    Rng ids{7};
    for (std::size_t i = 0; i < n; ++i) {
      const net::HostId host = net->AddHost({region, 1e9});
      nodes.push_back(std::make_unique<EthNode>(simulator, *net, tx_store, dag,
                                                host, p2p::RandomNodeId(ids),
                                                cfg, ids.Fork(i)));
    }
  }

  void ConnectAll() {
    for (std::size_t i = 0; i < nodes.size(); ++i)
      for (std::size_t j = i + 1; j < nodes.size(); ++j)
        EthNode::Connect(*nodes[i], *nodes[j]);
  }

  void ConnectRing() {
    for (std::size_t i = 0; i < nodes.size(); ++i)
      EthNode::Connect(*nodes[i], *nodes[(i + 1) % nodes.size()]);
  }

  sim::Simulator simulator;
  std::unique_ptr<net::Network> net;
  chain::BlockPtr genesis = MakeGenesis();
  chain::BlockDag dag{genesis};
  chain::TxStore tx_store;
  std::vector<std::unique_ptr<EthNode>> nodes;
};

TEST(EthNodeConnect, MutualAndIdempotent) {
  Cluster c{2};
  EXPECT_TRUE(EthNode::Connect(*c.nodes[0], *c.nodes[1]));
  EXPECT_TRUE(c.nodes[0]->ConnectedTo(*c.nodes[1]));
  EXPECT_TRUE(c.nodes[1]->ConnectedTo(*c.nodes[0]));
  EXPECT_FALSE(EthNode::Connect(*c.nodes[0], *c.nodes[1]));  // duplicate
  EXPECT_FALSE(EthNode::Connect(*c.nodes[0], *c.nodes[0]));  // self
  EXPECT_EQ(c.nodes[0]->peer_count(), 1u);
}

TEST(EthNodeConnect, MaxPeersEnforced) {
  NodeConfig cfg;
  cfg.max_peers = 2;
  Cluster c{4, cfg};
  EXPECT_TRUE(EthNode::Connect(*c.nodes[0], *c.nodes[1]));
  EXPECT_TRUE(EthNode::Connect(*c.nodes[0], *c.nodes[2]));
  EXPECT_FALSE(EthNode::Connect(*c.nodes[0], *c.nodes[3]));
  EXPECT_EQ(c.nodes[0]->peer_count(), 2u);
  EXPECT_EQ(c.nodes[3]->peer_count(), 0u);
}

TEST(EthNodeConnect, UnlimitedMaxPeersConstructsAndConnects) {
  // The paper's vantages ran with no peer limit; SIZE_MAX must mean exactly
  // that, not a vector reservation the allocator cannot honour.
  NodeConfig cfg;
  cfg.max_peers = SIZE_MAX;
  Cluster c{4, cfg};
  for (std::size_t i = 1; i < 4; ++i)
    EXPECT_TRUE(EthNode::Connect(*c.nodes[0], *c.nodes[i]));
  EXPECT_EQ(c.nodes[0]->peer_count(), 3u);
  EXPECT_EQ(c.nodes[0]->max_peers(), SIZE_MAX);
}

TEST(EthNodeBlocks, MinedBlockReachesAllNodes) {
  Cluster c{8};
  c.ConnectAll();
  const chain::BlockPtr b1 = Child(c.genesis);
  c.nodes[0]->InjectMinedBlock(b1);
  c.simulator.RunUntil(TimePoint::FromMicros(Duration::Seconds(10).micros()));
  for (const auto& node : c.nodes) {
    EXPECT_TRUE(node->tree().Contains(b1->hash));
    EXPECT_EQ(node->tree().head_hash(), b1->hash);
  }
}

TEST(EthNodeBlocks, PropagatesAcrossRingTopology) {
  // Multi-hop relay: a ring forces the block through every node in turn.
  Cluster c{10};
  c.ConnectRing();
  const chain::BlockPtr b1 = Child(c.genesis);
  c.nodes[0]->InjectMinedBlock(b1);
  c.simulator.RunUntil(TimePoint::FromMicros(Duration::Seconds(30).micros()));
  for (const auto& node : c.nodes) EXPECT_TRUE(node->tree().Contains(b1->hash));
}

TEST(EthNodeBlocks, ChainOfBlocksPropagates) {
  Cluster c{5};
  c.ConnectAll();
  chain::BlockPtr tip = c.genesis;
  for (int i = 0; i < 5; ++i) {
    tip = Child(tip, static_cast<std::uint64_t>(i));
    c.nodes[static_cast<std::size_t>(i) % c.nodes.size()]->InjectMinedBlock(tip);
    c.simulator.RunUntil(c.simulator.Now() + 5_s);
  }
  for (const auto& node : c.nodes) {
    EXPECT_EQ(node->tree().head_number(), 5u);
    EXPECT_EQ(node->tree().head_hash(), tip->hash);
  }
}

TEST(EthNodeBlocks, HeadCallbackFiresOnNewHead) {
  Cluster c{3};
  c.ConnectAll();
  int fires = 0;
  chain::BlockPtr last;
  c.nodes[2]->set_head_callback([&](chain::BlockPtr b) {
    ++fires;
    last = std::move(b);
  });
  const chain::BlockPtr b1 = Child(c.genesis);
  c.nodes[0]->InjectMinedBlock(b1);
  c.simulator.RunUntil(TimePoint::FromMicros(Duration::Seconds(5).micros()));
  EXPECT_EQ(fires, 1);
  ASSERT_TRUE(last);
  EXPECT_EQ(last->hash, b1->hash);
}

TEST(EthNodeBlocks, CompetingForksConvergeOnHeavierChain) {
  Cluster c{6};
  c.ConnectAll();
  // Two same-height blocks injected at different nodes at the same instant.
  const chain::BlockPtr a = Child(c.genesis, 1);
  const chain::BlockPtr b = Child(c.genesis, 2);
  c.nodes[0]->InjectMinedBlock(a);
  c.nodes[5]->InjectMinedBlock(b);
  c.simulator.RunUntil(TimePoint::FromMicros(Duration::Seconds(5).micros()));

  // Extend fork b: everyone must reorg onto it.
  const chain::BlockPtr b2 = Child(b, 3);
  c.nodes[5]->InjectMinedBlock(b2);
  c.simulator.RunUntil(TimePoint::FromMicros(Duration::Seconds(15).micros()));
  for (const auto& node : c.nodes) {
    EXPECT_EQ(node->tree().head_hash(), b2->hash);
    EXPECT_TRUE(node->tree().Contains(a->hash));  // fork retained in the tree
  }
}

TEST(EthNodeTxs, SubmittedTransactionGossipsToAllPools) {
  Cluster c{6};
  c.ConnectAll();
  const chain::Transaction tx = chain::MakeTransaction(Addr(5), 0, Addr(6), 10, 1);
  c.nodes[0]->SubmitTransaction(tx);
  c.simulator.RunUntil(TimePoint::FromMicros(Duration::Seconds(10).micros()));
  for (const auto& node : c.nodes) {
    EXPECT_TRUE(node->pool().Contains(tx.hash))
        << "node missing tx";
    EXPECT_EQ(node->pool().pending_count(), 1u);
  }
}

TEST(EthNodeTxs, DuplicateSubmissionIsIgnored) {
  Cluster c{2};
  c.ConnectAll();
  const chain::Transaction tx = chain::MakeTransaction(Addr(5), 0, Addr(6), 10, 1);
  c.nodes[0]->SubmitTransaction(tx);
  c.nodes[0]->SubmitTransaction(tx);
  c.simulator.RunUntil(TimePoint::FromMicros(Duration::Seconds(5).micros()));
  EXPECT_EQ(c.nodes[1]->pool().size(), 1u);
}

TEST(EthNodeTxs, IncludedTransactionsLeavePoolsEverywhere) {
  Cluster c{4};
  c.ConnectAll();
  const chain::Transaction tx = chain::MakeTransaction(Addr(5), 0, Addr(6), 10, 1);
  c.nodes[0]->SubmitTransaction(tx);
  c.simulator.RunUntil(TimePoint::FromMicros(Duration::Seconds(5).micros()));

  const chain::BlockPtr b1 = Child(c.genesis, 0, {tx});
  c.nodes[1]->InjectMinedBlock(b1);
  c.simulator.RunUntil(TimePoint::FromMicros(Duration::Seconds(15).micros()));
  for (const auto& node : c.nodes) {
    EXPECT_FALSE(node->pool().Contains(tx.hash));
    EXPECT_EQ(node->pool().AccountNonce(Addr(5)), 1u);
  }
}

TEST(EthNodeTxs, ReorgReturnsRetiredTransactionsToPool) {
  Cluster c{2};
  c.ConnectAll();
  const chain::Transaction tx = chain::MakeTransaction(Addr(5), 0, Addr(6), 10, 1);

  // Chain A includes the tx.
  const chain::BlockPtr a1 = Child(c.genesis, 1, {tx});
  c.nodes[0]->InjectMinedBlock(a1);
  c.simulator.RunUntil(TimePoint::FromMicros(Duration::Seconds(5).micros()));
  EXPECT_FALSE(c.nodes[1]->pool().Contains(tx.hash));

  // Chain B (empty blocks) outgrows chain A: the tx must come back.
  const chain::BlockPtr b1 = Child(c.genesis, 2);
  const chain::BlockPtr b2 = Child(b1, 2);
  c.nodes[1]->InjectMinedBlock(b1);
  c.nodes[1]->InjectMinedBlock(b2);
  c.simulator.RunUntil(TimePoint::FromMicros(Duration::Seconds(15).micros()));

  for (const auto& node : c.nodes) {
    EXPECT_EQ(node->tree().head_hash(), b2->hash);
    EXPECT_TRUE(node->pool().Contains(tx.hash)) << "tx lost in reorg";
  }
}

TEST(EthNodeTxs, OrphanCascadeReturnsTxOfAnAdoptedThenRetiredBlock) {
  // C1 and then C2 arrive while their parent B is unknown, so neither is
  // validated. C1 carries the pooled tx; C2 is empty and one unit heavier.
  // B's import attaches the waiting orphans in arrival order: it adopts B
  // and C1, then switches to C2. C1 joins and leaves the chain inside one
  // Add, so its tx must end up back in the pool with the sender's nonce
  // rolled back.
  Cluster c{2};
  EthNode& node = *c.nodes[1];
  EthNode* from = c.nodes[0].get();
  const chain::Transaction tx = chain::MakeTransaction(Addr(5), 0, Addr(6), 10, 1);
  node.SubmitTransaction(tx);
  ASSERT_TRUE(node.pool().Contains(tx.hash));

  const chain::BlockPtr b = Child(c.genesis, 1);
  const chain::BlockPtr c1 = Child(b, 1, {tx});
  const chain::BlockPtr c2 = Child(b, 2, {}, 1001);
  // One at a time, so C1 is buffered first: its validation (one tx) takes
  // longer than C2's.
  node.DeliverNewBlock(from, c1);
  c.simulator.RunUntil(TimePoint::FromMicros(Duration::Seconds(5).micros()));
  node.DeliverNewBlock(from, c2);
  c.simulator.RunUntil(TimePoint::FromMicros(Duration::Seconds(10).micros()));
  ASSERT_EQ(node.tree().orphan_count(), 1u);  // both wait on B
  ASSERT_FALSE(node.tree().Contains(c1->hash));

  node.DeliverNewBlock(from, b);
  c.simulator.RunUntil(TimePoint::FromMicros(Duration::Seconds(15).micros()));
  EXPECT_EQ(node.tree().head_hash(), c2->hash);
  EXPECT_TRUE(node.pool().Contains(tx.hash));
  EXPECT_EQ(node.pool().AccountNonce(Addr(5)), 0u);
}

// Counting sink used to verify relay economics.
struct CountingSink : MessageSink {
  int full_blocks = 0;
  int announcements = 0;
  int fetched = 0;
  int imported = 0;
  int txs = 0;

  void OnBlockMessage(BlockMsgKind kind, const Hash32&, std::uint64_t,
                      const chain::Block*) override {
    switch (kind) {
      case BlockMsgKind::kFullBlock: ++full_blocks; break;
      case BlockMsgKind::kAnnouncement: ++announcements; break;
      case BlockMsgKind::kFetched: ++fetched; break;
    }
  }
  void OnTransactionMessage(const chain::Transaction&) override { ++txs; }
  void OnBlockImported(const chain::BlockPtr&, bool) override { ++imported; }
};

TEST(EthNodeRelay, SinkSeesBlockTraffic) {
  Cluster c{8};
  c.ConnectAll();
  CountingSink sink;
  c.nodes[7]->set_sink(&sink);
  c.nodes[0]->InjectMinedBlock(Child(c.genesis));
  c.simulator.RunUntil(TimePoint::FromMicros(Duration::Seconds(10).micros()));
  EXPECT_EQ(sink.imported, 1);
  // With 7 peers each pushing to ~sqrt(7)≈3 and announcing to the rest, the
  // observer receives the block multiple times but far fewer than 7 pushes.
  EXPECT_GE(sink.full_blocks + sink.fetched, 1);
  EXPECT_GE(sink.announcements + sink.full_blocks, 1);
}

TEST(EthNodeRelay, EachNodeImportsEachBlockExactlyOnce) {
  Cluster c{8};
  c.ConnectAll();
  std::vector<CountingSink> sinks(8);
  for (std::size_t i = 0; i < 8; ++i) c.nodes[i]->set_sink(&sinks[i]);
  chain::BlockPtr tip = c.genesis;
  for (int i = 0; i < 3; ++i) {
    tip = Child(tip, static_cast<std::uint64_t>(i));
    c.nodes[0]->InjectMinedBlock(tip);
    c.simulator.RunUntil(c.simulator.Now() + 5_s);
  }
  for (const auto& sink : sinks) EXPECT_EQ(sink.imported, 3);
}

TEST(EthNodeRelay, AnnouncementTriggersFetchWhenUnknown) {
  // Topology: miner -- hub -- leaf, with the hub's push targeting limited so
  // the leaf node sometimes learns via announcement + fetch. With 1 peer
  // sqrt(1)=1 so push always happens; use a sink to check the fetched path
  // is at least exercised across a wider cluster instead.
  Cluster c{12};
  c.ConnectAll();
  std::vector<CountingSink> sinks(12);
  for (std::size_t i = 0; i < 12; ++i) c.nodes[i]->set_sink(&sinks[i]);
  chain::BlockPtr tip = c.genesis;
  for (int i = 0; i < 10; ++i) {
    tip = Child(tip, static_cast<std::uint64_t>(i));
    c.nodes[static_cast<std::size_t>(i) % 12]->InjectMinedBlock(tip);
    c.simulator.RunUntil(c.simulator.Now() + 3_s);
  }
  int total_fetched = 0;
  for (const auto& sink : sinks) total_fetched += sink.fetched;
  EXPECT_GT(total_fetched, 0) << "announcement+fetch path never used";
}


TEST(EthNodeRelayModes, PushAllFloodsEveryPeerDirectly) {
  NodeConfig cfg;
  cfg.relay_mode = RelayMode::kPushAll;
  Cluster c{10, cfg};
  c.ConnectAll();
  CountingSink sink;
  c.nodes[9]->set_sink(&sink);
  c.nodes[0]->InjectMinedBlock(Child(c.genesis));
  c.simulator.RunUntil(TimePoint::FromMicros(Duration::Seconds(20).micros()));
  EXPECT_EQ(sink.imported, 1);
  // With push-to-all, the observer receives many more full copies than the
  // sqrt policy would send, and never needs to fetch.
  EXPECT_GE(sink.full_blocks, 3);
  EXPECT_EQ(sink.fetched, 0);
}

TEST(EthNodeRelayModes, AnnounceOnlyStillDisseminates) {
  NodeConfig cfg;
  cfg.relay_mode = RelayMode::kAnnounceOnly;
  Cluster c{10, cfg};
  c.ConnectAll();
  std::vector<CountingSink> sinks(10);
  for (std::size_t i = 0; i < 10; ++i) c.nodes[i]->set_sink(&sinks[i]);
  c.nodes[0]->InjectMinedBlock(Child(c.genesis));
  c.simulator.RunUntil(TimePoint::FromMicros(Duration::Seconds(30).micros()));
  int fetched_total = 0;
  for (std::size_t i = 0; i < 10; ++i) {
    EXPECT_EQ(sinks[i].imported, 1) << "node " << i;
    fetched_total += sinks[i].fetched;
  }
  // Everyone except the miner must have fetched the body.
  EXPECT_GE(fetched_total, 9);
}

TEST(EthNodeFaults, GossipSurvivesMessageLoss) {
  // 15% of messages vanish; redundancy (multiple pushes + announcements)
  // still delivers the block everywhere — the fault-tolerance role of the
  // redundancy the paper quantifies in Table II.
  sim::Simulator simulator;
  net::NetworkParams lossy;
  lossy.drop_prob = 0.15;
  net::Network network{simulator, Rng{99}, lossy};
  chain::BlockPtr genesis = MakeGenesis();
  chain::BlockDag dag{genesis};
  Rng ids{7};
  chain::TxStore tx_store;
  std::vector<std::unique_ptr<EthNode>> nodes;
  for (int i = 0; i < 16; ++i) {
    const net::HostId host = network.AddHost({net::Region::WesternEurope, 1e9});
    nodes.push_back(std::make_unique<EthNode>(simulator, network, tx_store,
                                              dag, host, p2p::RandomNodeId(ids),
                                              NodeConfig{}, ids.Fork(i)));
  }
  for (std::size_t i = 0; i < nodes.size(); ++i)
    for (std::size_t j = i + 1; j < nodes.size(); ++j)
      EthNode::Connect(*nodes[i], *nodes[j]);

  chain::BlockPtr tip = genesis;
  for (int i = 0; i < 10; ++i) {
    tip = Child(tip, static_cast<std::uint64_t>(i));
    nodes[0]->InjectMinedBlock(tip);
    simulator.RunUntil(simulator.Now() + Duration::Seconds(13));
  }
  simulator.RunUntil(simulator.Now() + Duration::Seconds(60));

  EXPECT_GT(network.messages_dropped(), 0u);
  int fully_synced = 0;
  for (const auto& node : nodes)
    fully_synced += node->tree().head_hash() == tip->hash;
  // A dense mesh shrugs off 15% loss almost entirely.
  EXPECT_GE(fully_synced, 15);
}


TEST(EthNodeValidation, CorruptBlockIsRejectedNotImported) {
  Cluster c{3};
  c.ConnectAll();
  // A block whose gas_used header field lies about the body.
  chain::Block bad_body;
  bad_body.header.parent_hash = c.genesis->hash;
  bad_body.header.number = c.genesis->header.number + 1;
  bad_body.header.difficulty = 1000;
  bad_body.header.timestamp = c.genesis->header.timestamp + 13;
  bad_body.Seal();
  chain::Block tampered_body{bad_body};
  tampered_body.header.gas_used = 999;  // inconsistent with empty body
  tampered_body.hash =
      tampered_body.header.Hash();  // re-sealed, still structurally bad
  const chain::BlockPtr bad = Arena().Adopt(std::move(bad_body));
  const chain::BlockPtr tampered = Arena().Adopt(std::move(tampered_body));

  c.nodes[1]->DeliverNewBlock(c.nodes[0].get(), tampered);
  c.simulator.RunUntil(TimePoint::FromMicros(Duration::Seconds(10).micros()));

  EXPECT_EQ(c.nodes[1]->invalid_blocks(), 1u);
  EXPECT_FALSE(c.nodes[1]->tree().Contains(tampered->hash));
  // The honest version still works.
  c.nodes[1]->DeliverNewBlock(c.nodes[0].get(), bad);
  c.simulator.RunUntil(c.simulator.Now() + 10_s);
  EXPECT_TRUE(c.nodes[1]->tree().Contains(bad->hash));
}

TEST(EthNodeChurn, DisconnectFreesCapacityForReconnect) {
  NodeConfig cfg;
  cfg.max_peers = 1;
  Cluster c{3, cfg};
  EXPECT_TRUE(EthNode::Connect(*c.nodes[0], *c.nodes[1]));
  EXPECT_FALSE(EthNode::Connect(*c.nodes[0], *c.nodes[2]));  // full
  EXPECT_EQ(c.nodes[0]->DisconnectAll(), 1u);
  EXPECT_EQ(c.nodes[1]->peer_count(), 0u);  // the far side's slot too
  EXPECT_TRUE(EthNode::Connect(*c.nodes[0], *c.nodes[2]));   // slot freed
}

TEST(EthNodeChurn, DisconnectAllSeversBothSides) {
  Cluster c{4};
  c.ConnectAll();
  EXPECT_EQ(c.nodes[0]->DisconnectAll(), 3u);
  EXPECT_EQ(c.nodes[0]->peer_count(), 0u);
  for (std::size_t i = 1; i < 4; ++i) {
    EXPECT_FALSE(c.nodes[i]->ConnectedTo(*c.nodes[0])) << i;
    EXPECT_EQ(c.nodes[i]->peer_count(), 2u) << i;
  }
  EXPECT_EQ(c.nodes[0]->DisconnectAll(), 0u);
  // Gossip among the survivors is unaffected.
  const chain::BlockPtr b1 = Child(c.genesis);
  c.nodes[1]->InjectMinedBlock(b1);
  c.simulator.RunUntil(TimePoint::FromMicros(Duration::Seconds(10).micros()));
  EXPECT_TRUE(c.nodes[3]->tree().Contains(b1->hash));
  EXPECT_FALSE(c.nodes[0]->tree().Contains(b1->hash));
}

TEST(EthNodeFaults, OfflineNodeDropsIngressAndCensusesIt) {
  Cluster c{2};
  c.ConnectAll();
  c.nodes[1]->GoOffline();
  EXPECT_FALSE(c.nodes[1]->online());
  EXPECT_EQ(c.nodes[1]->peer_count(), 0u);  // crash severed the link

  const chain::BlockPtr b1 = Child(c.genesis);
  c.nodes[1]->DeliverNewBlock(c.nodes[0].get(), b1);  // in-flight straggler
  c.simulator.RunUntil(TimePoint::FromMicros(Duration::Seconds(5).micros()));
  EXPECT_FALSE(c.nodes[1]->tree().Contains(b1->hash));
  EXPECT_EQ(c.nodes[1]->offline_drops(), 1u);
  EXPECT_EQ(c.net->dropped_by(net::DropReason::kOffline), 1u);

  // Offline local actions are no-ops too.
  c.nodes[1]->InjectMinedBlock(Child(c.genesis, 9));
  c.nodes[1]->SubmitTransaction(
      chain::MakeTransaction(Addr(5), 0, Addr(6), 10, 1));
  c.simulator.RunUntil(c.simulator.Now() + 5_s);
  EXPECT_EQ(c.nodes[1]->tree().head_hash(), c.genesis->hash);
  EXPECT_EQ(c.nodes[1]->pool().size(), 0u);
}

TEST(EthNodeFaults, CrashMidValidationNeverImportsIntoTheNewSession) {
  // The epoch guard: a block is heard, validation is scheduled, and the node
  // crashes before it completes. After the restart the stale callback must
  // not fire — the tree stays at genesis until fresh traffic arrives.
  Cluster c{2};
  c.ConnectAll();
  const chain::BlockPtr b1 = Child(c.genesis);
  c.nodes[1]->DeliverNewBlock(c.nodes[0].get(), b1);
  // Past the header check (3 ms), inside full validation (~150 ms).
  c.simulator.RunUntil(TimePoint::FromMicros(Duration::Millis(50).micros()));
  c.nodes[1]->GoOffline();
  c.nodes[1]->GoOnline();
  c.simulator.RunUntil(TimePoint::FromMicros(Duration::Seconds(10).micros()));
  EXPECT_FALSE(c.nodes[1]->tree().Contains(b1->hash));
  EXPECT_EQ(c.nodes[1]->tree().head_hash(), c.genesis->hash);
}

TEST(EthNodeFaults, RestartedNodeBackfillsMissedBlocksViaOrphanFetch) {
  Cluster c{3};
  c.ConnectAll();
  c.nodes[2]->GoOffline();

  // Two blocks propagate among the survivors while node 2 is down.
  const chain::BlockPtr b1 = Child(c.genesis, 1);
  const chain::BlockPtr b2 = Child(b1, 1);
  c.nodes[0]->InjectMinedBlock(b1);
  c.simulator.RunUntil(c.simulator.Now() + 5_s);
  c.nodes[0]->InjectMinedBlock(b2);
  c.simulator.RunUntil(c.simulator.Now() + 5_s);
  EXPECT_EQ(c.nodes[2]->tree().head_hash(), c.genesis->hash);

  // Restart, rewire, and deliver the NEXT block: the orphan parent-fetch
  // path pulls b2 then b1 from the peer and the whole chain heals.
  c.nodes[2]->GoOnline();
  EXPECT_TRUE(EthNode::Connect(*c.nodes[2], *c.nodes[0]));
  const chain::BlockPtr b3 = Child(b2, 1);
  c.nodes[0]->InjectMinedBlock(b3);
  c.simulator.RunUntil(c.simulator.Now() + 30_s);
  EXPECT_EQ(c.nodes[2]->tree().head_hash(), b3->hash);
  EXPECT_EQ(c.nodes[2]->tree().orphan_count(), 0u);
}

TEST(EthNodeFaults, ConnectToOfflineNodeIsRefused) {
  Cluster c{2};
  c.nodes[1]->GoOffline();
  EXPECT_FALSE(EthNode::Connect(*c.nodes[0], *c.nodes[1]));
  c.nodes[1]->GoOnline();
  EXPECT_TRUE(EthNode::Connect(*c.nodes[0], *c.nodes[1]));
}

// Cluster with the provenance recorder attached: every gossip edge the nodes
// exchange lands in the edge log, and invariant violations are collected
// instead of warned.
struct ProvCluster : Cluster {
  explicit ProvCluster(std::size_t n, NodeConfig cfg = {}) : Cluster(n, cfg) {
    obs::TelemetryConfig tc;
    tc.provenance = true;
    telemetry = std::make_unique<obs::Telemetry>(tc);
    net->AttachTelemetry(telemetry.get());
    for (std::size_t i = 0; i < nodes.size(); ++i)
      nodes[i]->AttachTelemetry(telemetry.get(),
                                static_cast<std::uint32_t>(i));
    telemetry->provenance()->checker().set_handler(
        [this](obs::InvariantCheck check, const std::string& detail) {
          violations.push_back(std::string(obs::InvariantCheckName(check)) +
                               ": " + detail);
        });
  }

  const obs::ProvenanceLog& FinishLog() {
    telemetry->provenance()->SetEndTime(simulator.Now().micros());
    return telemetry->provenance()->Finish();
  }

  std::unique_ptr<obs::Telemetry> telemetry;
  std::vector<std::string> violations;
};

TEST(EthNodeProvenance, HopDepthsInheritAlongTheRelayChain) {
  // A ring forces genuinely multi-hop dissemination; every host's recorded
  // hop must be exactly its tree parent's hop + 1 (depth inheritance), and
  // depth must exceed 1 somewhere (the block really was re-relayed).
  ProvCluster c{8};
  c.ConnectRing();
  const chain::BlockPtr b1 = Child(c.genesis);
  c.nodes[0]->InjectMinedBlock(b1);
  c.simulator.RunUntil(TimePoint::FromMicros(Duration::Seconds(30).micros()));

  const obs::ProvenanceLog& log = c.FinishLog();
  const auto tree =
      analysis::BuildDisseminationTree(log, b1->hash.prefix_u64());
  ASSERT_EQ(tree.nodes.size(), c.nodes.size()) << "block did not reach all";
  std::unordered_map<std::uint32_t, std::uint16_t> depth_of;
  for (const auto& node : tree.nodes) depth_of[node.host] = node.hop;
  std::uint16_t max_hop = 0;
  for (const auto& node : tree.nodes) {
    if (node.via == obs::EdgeKind::kOrigin) {
      EXPECT_EQ(node.hop, 0);
      continue;
    }
    ASSERT_TRUE(depth_of.contains(node.parent_host)) << node.host;
    EXPECT_EQ(node.hop, depth_of[node.parent_host] + 1)
        << "host " << node.host << " via host " << node.parent_host;
    max_hop = std::max(max_hop, node.hop);
  }
  EXPECT_GE(max_hop, 2) << "ring never produced a multi-hop relay";
  EXPECT_TRUE(c.violations.empty()) << c.violations.front();
}

TEST(EthNodeProvenance, EveryFetchFollowsADeliveredAnnouncement) {
  // Announce-only relay: each body must be fetched, and the log must show
  // the causal order announce(arrival) <= GetBlock(send) for every fetch —
  // plus a served body for each delivered request.
  NodeConfig cfg;
  cfg.relay_mode = RelayMode::kAnnounceOnly;
  ProvCluster c{8, cfg};
  c.ConnectAll();
  chain::BlockPtr tip = c.genesis;
  for (int i = 0; i < 3; ++i) {
    tip = Child(tip, static_cast<std::uint64_t>(i));
    c.nodes[static_cast<std::size_t>(i)]->InjectMinedBlock(tip);
    c.simulator.RunUntil(c.simulator.Now() + 5_s);
  }
  c.simulator.RunUntil(c.simulator.Now() + 10_s);

  const obs::ProvenanceLog& log = c.FinishLog();
  std::size_t fetches = 0;
  std::size_t bodies = 0;
  for (std::size_t i = 0; i < log.size(); ++i) {
    const auto kind = static_cast<obs::EdgeKind>(log.kind[i]);
    if (kind == obs::EdgeKind::kBlockResponse && log.delivered(i)) ++bodies;
    if (kind != obs::EdgeKind::kGetBlock) continue;
    ++fetches;
    // Find a delivered announcement of the same object to the fetching host
    // that arrived no later than the fetch was sent.
    bool announced = false;
    for (std::size_t j = 0; j < log.size() && !announced; ++j) {
      if (static_cast<obs::EdgeKind>(log.kind[j]) !=
          obs::EdgeKind::kAnnouncement)
        continue;
      announced = log.object[j] == log.object[i] &&
                  log.to[j] == log.from[i] && log.delivered(j) &&
                  log.arrival_us[j] <= log.send_us[i];
    }
    EXPECT_TRUE(announced) << "fetch at row " << i << " had no prior announce";
  }
  // 7 non-miner nodes x 3 blocks all fetched their bodies.
  EXPECT_GE(fetches, 21u);
  EXPECT_GE(bodies, 21u);
  // The analysis layer agrees: announcements win every first delivery.
  const auto shares = analysis::FirstDeliveryBreakdown(log);
  EXPECT_EQ(shares.push, 0u);
  EXPECT_EQ(shares.announce, shares.total());
  EXPECT_TRUE(c.violations.empty()) << c.violations.front();
}

TEST(EthNodeProvenance, PushAnnounceRaceDeduplicatesFirstDelivery) {
  // Dense mesh: most hosts hear each block several times (a push and many
  // announcements race). Exactly one edge per (block, host) may claim the
  // first delivery; every other delivered copy is attributed as redundant.
  ProvCluster c{10};
  c.ConnectAll();
  std::vector<CountingSink> sinks(10);
  for (std::size_t i = 0; i < 10; ++i) c.nodes[i]->set_sink(&sinks[i]);
  const chain::BlockPtr b1 = Child(c.genesis);
  c.nodes[0]->InjectMinedBlock(b1);
  c.simulator.RunUntil(TimePoint::FromMicros(Duration::Seconds(20).micros()));

  const obs::ProvenanceLog& log = c.FinishLog();
  const std::uint64_t object = b1->hash.prefix_u64();
  const auto tree = analysis::BuildDisseminationTree(log, object);
  ASSERT_EQ(tree.nodes.size(), 10u);
  std::unordered_map<std::uint32_t, int> seen_hosts;
  for (const auto& node : tree.nodes) ++seen_hosts[node.host];
  for (const auto& [host, count] : seen_hosts)
    EXPECT_EQ(count, 1) << "host " << host << " claimed twice";

  // Accounting identity: delivered block-message edges = 9 firsts + the
  // redundant rest (the origin self-edge is excluded from both sides).
  std::uint64_t delivered_block_edges = 0;
  for (std::size_t i = 0; i < log.size(); ++i) {
    const auto kind = static_cast<obs::EdgeKind>(log.kind[i]);
    if (kind == obs::EdgeKind::kOrigin || kind == obs::EdgeKind::kGetBlock ||
        kind == obs::EdgeKind::kTransactions)
      continue;
    if (log.object[i] == object && log.delivered(i)) ++delivered_block_edges;
  }
  EXPECT_EQ(delivered_block_edges, 9u + tree.redundant_edges);
  EXPECT_GT(tree.redundant_edges, 0u) << "no race ever happened";

  // And despite the redundant copies, each node imported exactly once.
  for (const auto& sink : sinks) EXPECT_EQ(sink.imported, 1);
  EXPECT_TRUE(c.violations.empty()) << c.violations.front();
}

TEST(EthNodeBlocks, OrphanParentIsFetchedAndChainHeals) {
  // Deliver a block whose parent the receiver never saw: node 1 must fetch
  // the parent and still converge.
  Cluster c{2};
  c.ConnectAll();
  const chain::BlockPtr b1 = Child(c.genesis, 1);
  const chain::BlockPtr b2 = Child(b1, 1);
  // Inject only into node 0's tree by hand-crafting: use a private cluster
  // where node 0 knows b1 but the wire only carries b2 first.
  c.nodes[0]->InjectMinedBlock(b1);
  c.simulator.RunUntil(TimePoint::FromMicros(1000));  // b1 still in flight
  c.nodes[0]->InjectMinedBlock(b2);
  c.simulator.RunUntil(TimePoint::FromMicros(Duration::Seconds(20).micros()));
  EXPECT_EQ(c.nodes[1]->tree().head_hash(), b2->hash);
  EXPECT_EQ(c.nodes[1]->tree().orphan_count(), 0u);
}

}  // namespace
}  // namespace ethsim::eth
