#include "measure/observer.hpp"

#include <gtest/gtest.h>

#include <memory>

#include "chain/block_arena.hpp"

namespace ethsim::measure {
namespace {

chain::BlockArena& Arena() {
  static chain::BlockArena arena;  // outlives every fixture in the suite
  return arena;
}


using namespace ethsim::literals;

chain::BlockPtr MakeGenesis() {
  chain::Block b;
  b.Seal();
  return Arena().Adopt(std::move(b));
}

chain::BlockPtr Child(const chain::BlockPtr& parent, std::uint64_t mix = 0) {
  chain::Block b;
  b.header.parent_hash = parent->hash;
  b.header.number = parent->header.number + 1;
  b.header.timestamp = parent->header.timestamp + 13;
  b.header.difficulty = 100;
  b.header.mix_seed = mix;
  b.Seal();
  return Arena().Adopt(std::move(b));
}

struct ObserverFixture : ::testing::Test {
  ObserverFixture() {
    net = std::make_unique<net::Network>(simulator, Rng{1}, net::NetworkParams{});
    for (int i = 0; i < 3; ++i) {
      const net::HostId host = net->AddHost({net::Region::WesternEurope, 1e9});
      Rng ids{static_cast<std::uint64_t>(i) + 10};
      nodes.push_back(std::make_unique<eth::EthNode>(
          simulator, *net, tx_store, dag, host, p2p::RandomNodeId(ids),
          eth::NodeConfig{}, Rng{static_cast<std::uint64_t>(i) + 50}));
    }
    for (std::size_t i = 0; i < 3; ++i)
      for (std::size_t j = i + 1; j < 3; ++j)
        eth::EthNode::Connect(*nodes[i], *nodes[j]);
  }

  sim::Simulator simulator;
  std::unique_ptr<net::Network> net;
  chain::BlockPtr genesis = MakeGenesis();
  chain::BlockDag dag{genesis};
  chain::TxStore tx_store;
  std::vector<std::unique_ptr<eth::EthNode>> nodes;
};

TEST_F(ObserverFixture, RecordsBlockArrivalsWithSkewedClock) {
  Observer obs{"WE", net::Region::WesternEurope, simulator, 50_ms};
  obs.Attach(*nodes[2]);

  const chain::BlockPtr b1 = Child(genesis);
  nodes[0]->InjectMinedBlock(b1);
  simulator.RunUntil(TimePoint::FromMicros((5_s).micros()));

  ASSERT_FALSE(obs.block_arrivals().empty());
  const auto it = obs.first_block_arrival().find(b1->hash);
  ASSERT_NE(it, obs.first_block_arrival().end());
  // Local time = true arrival + 50ms offset, so it must exceed the offset
  // plus some propagation.
  EXPECT_GT(it->second.millis(), 50.0);
  EXPECT_EQ(obs.name(), "WE");
  EXPECT_EQ(obs.clock_offset(), 50_ms);
}

TEST_F(ObserverFixture, NegativeOffsetShiftsTimestampsBack) {
  Observer fast{"A", net::Region::WesternEurope, simulator, 0_ms};
  Observer slow{"B", net::Region::WesternEurope, simulator,
                Duration::Millis(-20)};
  fast.Attach(*nodes[1]);
  slow.Attach(*nodes[2]);

  const chain::BlockPtr b1 = Child(genesis);
  nodes[0]->InjectMinedBlock(b1);
  simulator.RunUntil(TimePoint::FromMicros((5_s).micros()));

  const auto ta = fast.first_block_arrival().at(b1->hash);
  const auto tb = slow.first_block_arrival().at(b1->hash);
  // Both attached to symmetric nodes; B's clock reads ~20ms earlier than the
  // truth, so tb should be less than ta + jitter tolerance.
  EXPECT_LT(tb.millis(), ta.millis() + 15.0);
}

TEST_F(ObserverFixture, FirstArrivalKeepsEarliestAcrossRedundantCopies) {
  Observer obs{"WE", net::Region::WesternEurope, simulator, 0_ms};
  obs.Attach(*nodes[2]);

  const chain::BlockPtr b1 = Child(genesis);
  nodes[0]->InjectMinedBlock(b1);
  nodes[1]->InjectMinedBlock(b1);  // a second copy arrives from elsewhere
  simulator.RunUntil(TimePoint::FromMicros((5_s).micros()));

  // Redundant receptions recorded individually...
  std::size_t receptions = 0;
  for (const auto& arrival : obs.block_arrivals())
    if (arrival.hash == b1->hash) ++receptions;
  EXPECT_GE(receptions, 2u);
  // ...but the first-arrival index keeps the minimum.
  const TimePoint first = obs.first_block_arrival().at(b1->hash);
  for (const auto& arrival : obs.block_arrivals()) {
    if (arrival.hash == b1->hash) {
      EXPECT_GE(arrival.local_time, first);
    }
  }
}

TEST_F(ObserverFixture, RecordsTransactionsAndImports) {
  Observer obs{"WE", net::Region::WesternEurope, simulator, 0_ms};
  obs.Attach(*nodes[2]);

  Address sender;
  sender.bytes[0] = 9;
  const auto tx = chain::MakeTransaction(sender, 0, sender, 1, 2);
  nodes[0]->SubmitTransaction(tx);
  simulator.RunUntil(TimePoint::FromMicros((2_s).micros()));

  ASSERT_TRUE(obs.first_tx_arrival().contains(tx.hash));
  ASSERT_FALSE(obs.tx_arrivals().empty());
  EXPECT_EQ(obs.tx_arrivals().front().sender, sender);
  EXPECT_EQ(obs.tx_arrivals().front().nonce, 0u);

  const chain::BlockPtr b1 = Child(genesis);
  nodes[0]->InjectMinedBlock(b1);
  simulator.RunUntil(TimePoint::FromMicros((10_s).micros()));
  ASSERT_FALSE(obs.imports().empty());
  EXPECT_EQ(obs.imports().back().hash, b1->hash);
  EXPECT_TRUE(obs.imports().back().new_head);
}

TEST_F(ObserverFixture, DistinguishesMessageKinds) {
  // Needs a cluster large enough that sqrt-push does not cover every peer,
  // so hash announcements actually occur.
  for (int i = 0; i < 9; ++i) {
    const net::HostId host = net->AddHost({net::Region::WesternEurope, 1e9});
    Rng ids{static_cast<std::uint64_t>(i) + 400};
    nodes.push_back(std::make_unique<eth::EthNode>(
        simulator, *net, tx_store, dag, host, p2p::RandomNodeId(ids),
        eth::NodeConfig{}, Rng{static_cast<std::uint64_t>(i) + 900}));
  }
  for (std::size_t i = 0; i < nodes.size(); ++i)
    for (std::size_t j = i + 1; j < nodes.size(); ++j)
      eth::EthNode::Connect(*nodes[i], *nodes[j]);

  Observer obs{"WE", net::Region::WesternEurope, simulator, 0_ms};
  obs.Attach(*nodes[2]);
  chain::BlockPtr tip = genesis;
  for (int i = 0; i < 6; ++i) {
    tip = Child(tip, static_cast<std::uint64_t>(i));
    nodes[0]->InjectMinedBlock(tip);
    simulator.RunUntil(simulator.Now() + 3_s);
  }
  bool saw_full = false, saw_announcement = false;
  for (const auto& arrival : obs.block_arrivals()) {
    if (arrival.kind == eth::MessageSink::BlockMsgKind::kFullBlock)
      saw_full = true;
    if (arrival.kind == eth::MessageSink::BlockMsgKind::kAnnouncement)
      saw_announcement = true;
  }
  EXPECT_TRUE(saw_full);
  EXPECT_TRUE(saw_announcement);
}

static_assert(sizeof(ArrivalRecord) == 16);

// A replayed log may hold what no live run logs: one block hash under two
// numbers, one tx hash under two (sender, nonce) pairs. Each record must read
// back as ingested, and the digest must be the one the full records give.
TEST(ObserverReplay, RecordsSharingAHashReadBackAsIngested) {
  using Kind = eth::MessageSink::BlockMsgKind;
  sim::Simulator simulator;
  Observer obs{"replay", net::Region::EasternAsia, simulator, 7_ms};
  Hash32 hash;
  hash.bytes[0] = 0xab;
  hash.bytes[31] = 0x01;
  Address alice, bob;
  alice.bytes[0] = 1;
  bob.bytes[0] = 2;
  const auto at = [](std::int64_t us) { return TimePoint::FromMicros(us); };
  const std::vector<BlockArrival> blocks = {
      {hash, 10, Kind::kFullBlock, at(500)},
      {hash, 11, Kind::kAnnouncement, at(300)},
      {hash, 10, Kind::kFetched, at(900)},
  };
  const std::vector<TxArrival> txs = {
      {hash, alice, 3, at(400)},
      {hash, bob, 4, at(200)},
      {hash, alice, 3, at(250)},
  };
  for (const BlockArrival& b : blocks) obs.IngestBlockArrival(b);
  for (const TxArrival& t : txs) obs.IngestTxArrival(t);

  ASSERT_EQ(obs.block_arrivals().size(), blocks.size());
  for (std::size_t i = 0; i < blocks.size(); ++i) {
    const BlockArrival got = obs.block_arrivals()[i];
    EXPECT_EQ(got.hash, blocks[i].hash) << i;
    EXPECT_EQ(got.number, blocks[i].number) << i;
    EXPECT_EQ(got.kind, blocks[i].kind) << i;
    EXPECT_EQ(got.local_time, blocks[i].local_time) << i;
  }
  ASSERT_EQ(obs.tx_arrivals().size(), txs.size());
  for (std::size_t i = 0; i < txs.size(); ++i) {
    const TxArrival got = obs.tx_arrivals()[i];
    EXPECT_EQ(got.hash, txs[i].hash) << i;
    EXPECT_EQ(got.sender, txs[i].sender) << i;
    EXPECT_EQ(got.nonce, txs[i].nonce) << i;
    EXPECT_EQ(got.local_time, txs[i].local_time) << i;
  }
  EXPECT_EQ(obs.first_block_arrival().at(hash), at(300));
  EXPECT_EQ(obs.first_tx_arrival().at(hash), at(200));
  EXPECT_EQ(ToHex(obs.Digest()),
            "9cad312f003210e82697c9c7e54081a7eabfa5e1d16d46a83dae964f6b948d88");
}

}  // namespace
}  // namespace ethsim::measure
