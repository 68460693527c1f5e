#include "analysis/commit.hpp"

#include <gtest/gtest.h>

#include <memory>

#include "analysis/ordering.hpp"
#include "chain/block_arena.hpp"

namespace ethsim::analysis {
namespace {

using namespace ethsim::literals;

chain::BlockArena& Arena() {
  static chain::BlockArena arena;  // outlives every fixture in the suite
  return arena;
}

Address Sender(std::uint8_t tag) {
  Address a;
  a.bytes[0] = tag;
  return a;
}

// Builds a canonical chain with chosen txs per block and synthetic observer
// logs with exact arrival times.
struct CommitFixture : ::testing::Test {
  CommitFixture() {
    chain::Block g;
    g.header.difficulty = 1;
    g.Seal();
    genesis = Arena().Adopt(std::move(g));
    tree = std::make_unique<chain::BlockTree>(genesis);
    tip = genesis;
    observer = std::make_unique<measure::Observer>(
        "V", net::Region::WesternEurope, simulator, 0_ms);
  }

  // Appends a canonical block at `when` containing txs; logs its arrival.
  chain::BlockPtr Block(Duration when, std::vector<chain::Transaction> txs) {
    chain::Block body;
    body.header.parent_hash = tip->hash;
    body.header.number = tip->header.number + 1;
    body.header.difficulty = 1;
    body.transactions = std::move(txs);
    body.Seal();
    const chain::BlockPtr b = Arena().Adopt(std::move(body));
    tree->Add(b, TimePoint::FromMicros(when.micros()));
    tip = b;
    simulator.Schedule(when, [this, b] {
      observer->OnBlockMessage(eth::MessageSink::BlockMsgKind::kFullBlock,
                               b->hash, b->header.number);
    });
    return b;
  }

  void TxSeenAt(const chain::Transaction& tx, Duration when) {
    simulator.Schedule(when, [this, tx] { observer->OnTransactionMessage(tx); });
  }

  StudyInputs Inputs() {
    StudyInputs inputs;
    inputs.observers = {observer.get()};
    inputs.reference = tree.get();
    return inputs;
  }

  sim::Simulator simulator;
  chain::BlockPtr genesis;
  std::unique_ptr<chain::BlockTree> tree;
  chain::BlockPtr tip;
  std::unique_ptr<measure::Observer> observer;
};

TEST_F(CommitFixture, InclusionAndConfirmationDelays) {
  const auto tx = chain::MakeTransaction(Sender(1), 0, Sender(2), 1, 1);
  TxSeenAt(tx, 10_s);
  Block(23_s, {tx});            // inclusion 13s after first seen
  for (int i = 0; i < 3; ++i)   // 3 confirmations, 13s apart
    Block(Duration::Seconds(23 + 13 * (i + 1)), {});
  simulator.RunAll();

  const auto result = TransactionCommitTimes(Inputs(), {0, 3});
  ASSERT_EQ(result.delays_s.size(), 2u);
  EXPECT_EQ(result.committed_txs, 1u);
  ASSERT_EQ(result.delays_s[0].count(), 1u);
  EXPECT_NEAR(result.delays_s[0].Quantile(0.5), 13.0, 1e-6);
  EXPECT_NEAR(result.delays_s[1].Quantile(0.5), 13.0 + 39.0, 1e-6);
}

TEST_F(CommitFixture, TxsWithoutFullConfirmationCoverageExcluded) {
  const auto tx = chain::MakeTransaction(Sender(1), 0, Sender(2), 1, 1);
  TxSeenAt(tx, 1_s);
  Block(10_s, {tx});
  Block(20_s, {});  // only 1 confirmation; need 3
  simulator.RunAll();

  const auto result = TransactionCommitTimes(Inputs(), {0, 3});
  EXPECT_EQ(result.committed_txs, 0u);
  EXPECT_EQ(result.delays_s[0].count(), 0u);
}

TEST_F(CommitFixture, NeverObservedTxsAreSkipped) {
  const auto tx = chain::MakeTransaction(Sender(1), 0, Sender(2), 1, 1);
  // Not announced to the observer at all.
  Block(10_s, {tx});
  Block(20_s, {});
  simulator.RunAll();
  const auto result = TransactionCommitTimes(Inputs(), {0, 1});
  EXPECT_EQ(result.committed_txs, 0u);
}

TEST_F(CommitFixture, MultipleDepthsShareTheSameTxSet) {
  const auto tx1 = chain::MakeTransaction(Sender(1), 0, Sender(2), 1, 1);
  const auto tx2 = chain::MakeTransaction(Sender(3), 0, Sender(2), 1, 1);
  TxSeenAt(tx1, 1_s);
  TxSeenAt(tx2, 2_s);
  Block(10_s, {tx1, tx2});
  for (int i = 1; i <= 12; ++i) Block(Duration::Seconds(10 + 13 * i), {});
  simulator.RunAll();

  const auto result = TransactionCommitTimes(Inputs(), {0, 3, 12});
  EXPECT_EQ(result.committed_txs, 2u);
  EXPECT_EQ(result.delays_s[0].count(), 2u);
  EXPECT_EQ(result.delays_s[2].count(), 2u);
  // Min 12-conf delay belongs to tx2 (seen at 2s): 166 - 2 = 164 s; tx1's is
  // one second longer.
  EXPECT_NEAR(result.delays_s[2].Quantile(0.0), 164.0, 1e-6);
  EXPECT_NEAR(result.delays_s[2].Quantile(1.0), 165.0, 1e-6);
}

TEST_F(CommitFixture, CanonicalBlockFirstSeenUsesEarliestVantage) {
  auto obs2 = std::make_unique<measure::Observer>(
      "V2", net::Region::EasternAsia, simulator, 0_ms);
  const auto b1 = Block(10_s, {});
  // Second observer sees it earlier (e.g. closer to the miner).
  simulator.Schedule(9_s, [&obs2, b1] {
    obs2->OnBlockMessage(eth::MessageSink::BlockMsgKind::kFullBlock, b1->hash,
                         b1->header.number);
  });
  simulator.RunAll();

  StudyInputs inputs = Inputs();
  inputs.observers.push_back(obs2.get());
  const auto seen = CanonicalBlockFirstSeen(inputs);
  ASSERT_TRUE(seen.contains(1));
  EXPECT_NEAR(seen.at(1).seconds(), 9.0, 1e-9);
}

// --- ordering (Fig 5) -------------------------------------------------------

TEST_F(CommitFixture, OutOfOrderDetection) {
  // Sender 1 sends nonces 0 and 1; the observer sees nonce 1 FIRST.
  const auto tx0 = chain::MakeTransaction(Sender(1), 0, Sender(2), 1, 1);
  const auto tx1 = chain::MakeTransaction(Sender(1), 1, Sender(2), 1, 1);
  TxSeenAt(tx1, 1_s);
  TxSeenAt(tx0, 2_s);
  // A second sender arrives in order.
  const auto tx2 = chain::MakeTransaction(Sender(3), 0, Sender(2), 1, 1);
  const auto tx3 = chain::MakeTransaction(Sender(3), 1, Sender(2), 1, 1);
  TxSeenAt(tx2, 1_s);
  TxSeenAt(tx3, 2_s);

  Block(10_s, {tx0, tx1, tx2, tx3});
  for (int i = 1; i <= 12; ++i) Block(Duration::Seconds(10 + 13 * i), {});
  simulator.RunAll();

  const auto result = TransactionOrdering(Inputs(), 12);
  EXPECT_EQ(result.committed_txs, 4u);
  EXPECT_EQ(result.out_of_order, 1u);  // only sender 1's nonce-1 tx
  EXPECT_DOUBLE_EQ(result.out_of_order_share, 0.25);
  EXPECT_EQ(result.in_order_delay_s.count(), 3u);
  EXPECT_EQ(result.out_of_order_delay_s.count(), 1u);
  // The OoO tx arrived earlier yet commits at the same block: its measured
  // commit delay is LONGER (it waited for its predecessor).
  EXPECT_GT(result.out_of_order_delay_s.mean(), result.in_order_delay_s.mean());
}

TEST_F(CommitFixture, SingleTxSendersAreInOrder) {
  const auto tx = chain::MakeTransaction(Sender(1), 0, Sender(2), 1, 1);
  TxSeenAt(tx, 1_s);
  Block(10_s, {tx});
  for (int i = 1; i <= 12; ++i) Block(Duration::Seconds(10 + 13 * i), {});
  simulator.RunAll();

  const auto result = TransactionOrdering(Inputs(), 12);
  EXPECT_EQ(result.committed_txs, 1u);
  EXPECT_EQ(result.out_of_order, 0u);
}

TEST_F(CommitFixture, NonAdjacentNonceInversionCounts) {
  // Nonces 0,1,2: observer sees 2 first, then 0, then 1.
  const auto tx0 = chain::MakeTransaction(Sender(1), 0, Sender(2), 1, 1);
  const auto tx1 = chain::MakeTransaction(Sender(1), 1, Sender(2), 1, 1);
  const auto tx2 = chain::MakeTransaction(Sender(1), 2, Sender(2), 1, 1);
  TxSeenAt(tx2, 1_s);
  TxSeenAt(tx0, 2_s);
  TxSeenAt(tx1, 3_s);
  Block(10_s, {tx0, tx1, tx2});
  for (int i = 1; i <= 12; ++i) Block(Duration::Seconds(10 + 13 * i), {});
  simulator.RunAll();

  const auto result = TransactionOrdering(Inputs(), 12);
  // tx2 is OoO (0 and 1 arrived later); tx1 is OoO (0 arrived... no — 0
  // arrived at 2s, tx1 at 3s: in order). Only tx2 counts.
  EXPECT_EQ(result.out_of_order, 1u);
}

}  // namespace
}  // namespace ethsim::analysis
