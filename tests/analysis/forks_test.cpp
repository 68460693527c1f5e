#include "analysis/forks.hpp"

#include <gtest/gtest.h>

#include <memory>

#include "chain/block_arena.hpp"

namespace ethsim::analysis {
namespace {

chain::BlockArena& Arena() {
  static chain::BlockArena arena;  // outlives every fixture in the suite
  return arena;
}


Address Miner(std::uint8_t tag) {
  Address a;
  a.bytes[19] = tag;
  return a;
}

struct ForkFixture : ::testing::Test {
  ForkFixture() {
    chain::Block g;
    g.header.difficulty = 1000;
    g.Seal();
    genesis = Arena().Adopt(std::move(g));
    tree = std::make_unique<chain::BlockTree>(genesis);
  }

  chain::BlockPtr Add(const chain::BlockPtr& parent, Address miner,
                      std::uint64_t mix = 0,
                      std::vector<chain::BlockHeader> uncles = {},
                      std::vector<chain::Transaction> txs = {}) {
    chain::Block body;
    body.header.parent_hash = parent->hash;
    body.header.number = parent->header.number + 1;
    body.header.difficulty = 1000;
    body.header.miner = miner;
    body.header.mix_seed = mix;
    body.uncles = std::move(uncles);
    body.transactions = std::move(txs);
    body.Seal();
    const chain::BlockPtr b = Arena().Adopt(std::move(body));
    tree->Add(b, TimePoint::FromMicros(static_cast<std::int64_t>(++ticks)));
    return b;
  }

  StudyInputs Inputs() {
    StudyInputs inputs;
    inputs.reference = tree.get();
    return inputs;
  }

  chain::BlockPtr genesis;
  std::unique_ptr<chain::BlockTree> tree;
  std::uint64_t ticks = 0;
};

TEST_F(ForkFixture, LinearChainHasNoForks) {
  chain::BlockPtr tip = genesis;
  for (int i = 0; i < 5; ++i) tip = Add(tip, Miner(1));
  const auto census = ComputeForkCensus(Inputs());
  EXPECT_EQ(census.total_blocks, 5u);
  EXPECT_EQ(census.main_blocks, 5u);
  EXPECT_DOUBLE_EQ(census.main_share, 1.0);
  EXPECT_EQ(census.fork_events, 0u);
  EXPECT_TRUE(census.by_length.empty());
}

TEST_F(ForkFixture, LengthOneForkRecognizedViaUncleReference) {
  const chain::BlockPtr a1 = Add(genesis, Miner(1), 1);
  const chain::BlockPtr b1 = Add(genesis, Miner(2), 2);  // fork
  // a2 references b1 as uncle.
  Add(a1, Miner(1), 0, {b1->header});
  const auto census = ComputeForkCensus(Inputs());

  EXPECT_EQ(census.total_blocks, 3u);
  EXPECT_EQ(census.main_blocks, 2u);
  EXPECT_EQ(census.recognized_uncles, 1u);
  EXPECT_EQ(census.unrecognized_blocks, 0u);
  ASSERT_EQ(census.by_length.size(), 1u);
  EXPECT_EQ(census.by_length[0].length, 1u);
  EXPECT_EQ(census.by_length[0].total, 1u);
  EXPECT_EQ(census.by_length[0].recognized, 1u);
}

TEST_F(ForkFixture, LengthOneForkUnrecognizedWithoutReference) {
  const chain::BlockPtr a1 = Add(genesis, Miner(1), 1);
  Add(genesis, Miner(2), 2);  // fork, never referenced
  Add(a1, Miner(1));          // extends main without uncles
  const auto census = ComputeForkCensus(Inputs());
  EXPECT_EQ(census.unrecognized_blocks, 1u);
  ASSERT_EQ(census.by_length.size(), 1u);
  EXPECT_EQ(census.by_length[0].recognized, 0u);
  EXPECT_EQ(census.by_length[0].unrecognized, 1u);
}

TEST_F(ForkFixture, LengthTwoForkCountedOnceAndNeverRecognized) {
  const chain::BlockPtr a1 = Add(genesis, Miner(1), 1);
  const chain::BlockPtr a2 = Add(a1, Miner(1), 1);
  const chain::BlockPtr b1 = Add(genesis, Miner(2), 2);
  Add(b1, Miner(2), 2);  // fork extends to len 2
  Add(a2, Miner(1), 0, {b1->header});  // b1 referenced; b2 cannot be

  const auto census = ComputeForkCensus(Inputs());
  EXPECT_EQ(census.fork_events, 1u);
  ASSERT_EQ(census.by_length.size(), 1u);
  EXPECT_EQ(census.by_length[0].length, 2u);
  EXPECT_EQ(census.by_length[0].total, 1u);
  // Per the paper, no fork longer than 1 ever became recognized.
  EXPECT_EQ(census.by_length[0].recognized, 0u);
}

TEST_F(ForkFixture, MixedForkLengthsBucketedCorrectly) {
  chain::BlockPtr tip = genesis;
  // Three length-1 forks at different heights and one length-3 fork.
  for (int i = 0; i < 3; ++i) {
    const chain::BlockPtr parent = tip;
    tip = Add(parent, Miner(1), 1);
    Add(parent, Miner(2), static_cast<std::uint64_t>(10 + i));  // fork
    tip = Add(tip, Miner(1), 1);
  }
  chain::BlockPtr fork = Add(tip, Miner(3), 99);
  fork = Add(fork, Miner(3), 99);
  fork = Add(fork, Miner(3), 99);
  tip = Add(tip, Miner(1), 1);
  tip = Add(tip, Miner(1), 1);
  tip = Add(tip, Miner(1), 1);
  tip = Add(tip, Miner(1), 1);  // main outgrows the length-3 fork

  const auto census = ComputeForkCensus(Inputs());
  ASSERT_EQ(census.by_length.size(), 2u);
  EXPECT_EQ(census.by_length[0].length, 1u);
  EXPECT_EQ(census.by_length[0].total, 3u);
  EXPECT_EQ(census.by_length[1].length, 3u);
  EXPECT_EQ(census.by_length[1].total, 1u);
  EXPECT_EQ(census.fork_events, 4u);
}

TEST_F(ForkFixture, OneMinerForkPairDetected) {
  const chain::BlockPtr a = Add(genesis, Miner(1), 1);
  const chain::BlockPtr b = Add(genesis, Miner(1), 2);  // same miner, same height
  Add(a, Miner(3), 0, {b->header});

  const auto census = ComputeForkCensus(Inputs());
  const auto omf = ComputeOneMinerForks(Inputs(), census);
  EXPECT_EQ(omf.events, 1u);
  EXPECT_EQ(omf.tuples.at(2), 1u);
  EXPECT_EQ(omf.extra_blocks, 1u);
  EXPECT_DOUBLE_EQ(omf.recognized_extra_share, 1.0);
  // Identical (empty) tx sets -> same-txset case.
  EXPECT_DOUBLE_EQ(omf.same_txset_share, 1.0);
  EXPECT_DOUBLE_EQ(omf.share_of_all_forks, 1.0);
}

TEST_F(ForkFixture, DistinctTxSetOneMinerForkClassified) {
  Address sender;
  sender.bytes[0] = 7;
  const auto tx = chain::MakeTransaction(sender, 0, sender, 1, 1);
  const chain::BlockPtr a = Add(genesis, Miner(1), 1, {}, {tx});
  Add(genesis, Miner(1), 2);  // same miner, no txs
  Add(a, Miner(3));

  const auto census = ComputeForkCensus(Inputs());
  const auto omf = ComputeOneMinerForks(Inputs(), census);
  EXPECT_EQ(omf.events, 1u);
  EXPECT_DOUBLE_EQ(omf.same_txset_share, 0.0);
}

TEST_F(ForkFixture, TripleCountedSeparately) {
  Add(genesis, Miner(1), 1);
  Add(genesis, Miner(1), 2);
  Add(genesis, Miner(1), 3);
  const auto census = ComputeForkCensus(Inputs());
  const auto omf = ComputeOneMinerForks(Inputs(), census);
  EXPECT_EQ(omf.events, 1u);
  EXPECT_EQ(omf.tuples.at(3), 1u);
  EXPECT_EQ(omf.extra_blocks, 2u);
}

TEST_F(ForkFixture, DifferentMinersAtSameHeightAreNotOneMinerForks) {
  Add(genesis, Miner(1), 1);
  Add(genesis, Miner(2), 2);
  const auto census = ComputeForkCensus(Inputs());
  const auto omf = ComputeOneMinerForks(Inputs(), census);
  EXPECT_EQ(omf.events, 0u);
  EXPECT_EQ(census.fork_events, 1u);
}

}  // namespace
}  // namespace ethsim::analysis
