#include "chain/txpool.hpp"

#include <gtest/gtest.h>

namespace ethsim::chain {
namespace {

Address Addr(std::uint8_t tag) {
  Address a;
  a.bytes[19] = tag;
  return a;
}

Transaction Tx(std::uint8_t sender, std::uint64_t nonce, std::uint64_t price = 1,
               std::uint32_t payload = 0) {
  return MakeTransaction(Addr(sender), nonce, Addr(200), 100, price, payload);
}

TEST(TxPool, InOrderArrivalsArePending) {
  TxPool pool;
  EXPECT_EQ(pool.Add(Tx(1, 0)), TxPool::AddOutcome::kPending);
  EXPECT_EQ(pool.Add(Tx(1, 1)), TxPool::AddOutcome::kPending);
  EXPECT_EQ(pool.pending_count(), 2u);
  EXPECT_EQ(pool.queued_count(), 0u);
}

TEST(TxPool, OutOfOrderArrivalIsQueuedThenPromoted) {
  TxPool pool;
  // Nonce 1 arrives before nonce 0 — the §III-C2 phenomenon.
  EXPECT_EQ(pool.Add(Tx(1, 1)), TxPool::AddOutcome::kQueued);
  EXPECT_EQ(pool.pending_count(), 0u);
  EXPECT_EQ(pool.queued_count(), 1u);

  EXPECT_EQ(pool.Add(Tx(1, 0)), TxPool::AddOutcome::kPending);
  // The gap closed; both are executable now.
  EXPECT_EQ(pool.pending_count(), 2u);
  EXPECT_EQ(pool.queued_count(), 0u);
}

TEST(TxPool, DuplicateHashIsKnown) {
  TxPool pool;
  const Transaction tx = Tx(1, 0);
  pool.Add(tx);
  EXPECT_EQ(pool.Add(tx), TxPool::AddOutcome::kKnown);
  EXPECT_EQ(pool.size(), 1u);
}

TEST(TxPool, StaleNonceRejected) {
  TxPool pool;
  pool.SetAccountNonce(Addr(1), 5);
  EXPECT_EQ(pool.Add(Tx(1, 4)), TxPool::AddOutcome::kStale);
  EXPECT_EQ(pool.Add(Tx(1, 5)), TxPool::AddOutcome::kPending);
}

TEST(TxPool, ReplacementRequiresHigherPrice) {
  TxPool pool;
  const Transaction cheap = Tx(1, 0, 10);
  const Transaction rich = Tx(1, 0, 20);
  const Transaction equal = Tx(1, 0, 10, 4);  // same price, different hash
  pool.Add(cheap);
  EXPECT_EQ(pool.Add(equal), TxPool::AddOutcome::kRejected);
  EXPECT_EQ(pool.Add(rich), TxPool::AddOutcome::kReplaced);
  EXPECT_TRUE(pool.Contains(rich.hash));
  EXPECT_FALSE(pool.Contains(cheap.hash));
  EXPECT_EQ(pool.size(), 1u);
}

// DESIGN.md §12's replacement quirk: including a replaced tx drops the pool
// slot its replacement holds, but the replacement's hash stays known.
TEST(TxPool, ReplacedThenIncludedHashStaysKnown) {
  TxPool pool;
  const Transaction a = Tx(1, 0, 1);
  const Transaction b = Tx(1, 0, 2);
  ASSERT_EQ(pool.Add(a), TxPool::AddOutcome::kPending);
  ASSERT_EQ(pool.Add(b), TxPool::AddOutcome::kReplaced);

  pool.RemoveIncluded({a});
  EXPECT_TRUE(pool.Contains(b.hash));
  EXPECT_EQ(pool.Add(b), TxPool::AddOutcome::kKnown);
  EXPECT_EQ(pool.Add(a), TxPool::AddOutcome::kStale);
  EXPECT_EQ(pool.size(), 1u);
  EXPECT_EQ(pool.queued_count(), 1u);
  EXPECT_EQ(pool.pending_count(), 0u);
  EXPECT_EQ(pool.AccountNonce(Addr(1)), 1u);
  EXPECT_TRUE(pool.SelectForBlock(8'000'000, 10).empty());
  ASSERT_TRUE(pool.CheckInvariants());
}

TEST(TxPool, SelectRespectsPerSenderNonceOrder) {
  TxPool pool;
  pool.Add(Tx(1, 0, 5));
  pool.Add(Tx(1, 1, 50));  // higher price but must come after nonce 0
  const auto selected = pool.SelectForBlock(1'000'000, 10);
  ASSERT_EQ(selected.size(), 2u);
  EXPECT_EQ(selected[0].nonce, 0u);
  EXPECT_EQ(selected[1].nonce, 1u);
}

TEST(TxPool, SelectPrefersHigherGasPriceAcrossSenders) {
  TxPool pool;
  pool.Add(Tx(1, 0, 1));
  pool.Add(Tx(2, 0, 100));
  pool.Add(Tx(3, 0, 10));
  const auto selected = pool.SelectForBlock(1'000'000, 10);
  ASSERT_EQ(selected.size(), 3u);
  EXPECT_EQ(selected[0].gas_price, 100u);
  EXPECT_EQ(selected[1].gas_price, 10u);
  EXPECT_EQ(selected[2].gas_price, 1u);
}

TEST(TxPool, SelectStopsAtGasLimit) {
  TxPool pool;
  for (std::uint8_t s = 1; s <= 10; ++s) pool.Add(Tx(s, 0));
  // 3 plain transfers of 21k fit in 70k gas.
  const auto selected = pool.SelectForBlock(70'000, 100);
  EXPECT_EQ(selected.size(), 3u);
}

TEST(TxPool, SelectStopsAtMaxTxs) {
  TxPool pool;
  for (std::uint8_t s = 1; s <= 10; ++s) pool.Add(Tx(s, 0));
  EXPECT_EQ(pool.SelectForBlock(10'000'000, 4).size(), 4u);
}

TEST(TxPool, SelectExcludesQueuedTxs) {
  TxPool pool;
  pool.Add(Tx(1, 0));
  pool.Add(Tx(1, 2));  // gap at nonce 1
  const auto selected = pool.SelectForBlock(1'000'000, 10);
  ASSERT_EQ(selected.size(), 1u);
  EXPECT_EQ(selected[0].nonce, 0u);
}

TEST(TxPool, RemoveIncludedAdvancesNonceAndPromotes) {
  TxPool pool;
  const Transaction t0 = Tx(1, 0);
  pool.Add(t0);
  pool.Add(Tx(1, 2));  // queued behind the gap
  pool.RemoveIncluded({t0});
  EXPECT_EQ(pool.AccountNonce(Addr(1)), 1u);
  EXPECT_EQ(pool.size(), 1u);
  EXPECT_EQ(pool.queued_count(), 1u);

  pool.Add(Tx(1, 1));
  EXPECT_EQ(pool.pending_count(), 2u);
}

TEST(TxPool, RemoveIncludedOfUnknownTxStillAdvancesNonce) {
  // A block mined elsewhere can include transactions this node never pooled.
  TxPool pool;
  pool.Add(Tx(1, 1));  // queued (gap at 0)
  pool.RemoveIncluded({Tx(1, 0)});
  EXPECT_EQ(pool.AccountNonce(Addr(1)), 1u);
  EXPECT_EQ(pool.pending_count(), 1u);
}

TEST(TxPool, NonceJumpDropsStaleTxs) {
  TxPool pool;
  pool.Add(Tx(1, 0));
  pool.Add(Tx(1, 1));
  pool.Add(Tx(1, 5));
  pool.SetAccountNonce(Addr(1), 3);
  EXPECT_EQ(pool.size(), 1u);  // only nonce 5 survives
  EXPECT_EQ(pool.queued_count(), 1u);
}

TEST(TxPool, SelectIsDeterministicForEqualPrices) {
  TxPool pool1, pool2;
  // Insert in different orders; selection must be identical.
  pool1.Add(Tx(1, 0, 7));
  pool1.Add(Tx(2, 0, 7));
  pool1.Add(Tx(3, 0, 7));
  pool2.Add(Tx(3, 0, 7));
  pool2.Add(Tx(1, 0, 7));
  pool2.Add(Tx(2, 0, 7));
  const auto s1 = pool1.SelectForBlock(1'000'000, 10);
  const auto s2 = pool2.SelectForBlock(1'000'000, 10);
  ASSERT_EQ(s1.size(), s2.size());
  for (std::size_t i = 0; i < s1.size(); ++i) EXPECT_EQ(s1[i].hash, s2[i].hash);
}

TEST(TxPool, LargeAccountStreamStaysConsistent) {
  TxPool pool;
  // 100 txs arriving in a scrambled but deterministic order.
  for (std::uint64_t i = 0; i < 100; ++i) pool.Add(Tx(1, (i * 37) % 100));
  EXPECT_EQ(pool.pending_count(), 100u);
  const auto selected = pool.SelectForBlock(21'000 * 100, 100);
  ASSERT_EQ(selected.size(), 100u);
  for (std::uint64_t i = 0; i < 100; ++i) EXPECT_EQ(selected[i].nonce, i);
}


// --- Incremental-index edge cases ------------------------------------------

TEST(TxPool, ReplacementSurvivesRollback) {
  TxPool pool;
  const Transaction cheap = Tx(1, 0, 10);
  const Transaction rich = Tx(1, 0, 20, 4);
  ASSERT_EQ(pool.Add(cheap), TxPool::AddOutcome::kPending);
  ASSERT_EQ(pool.Add(rich), TxPool::AddOutcome::kReplaced);

  // Mine the replacement, then reorg the block away.
  pool.RemoveIncluded({rich});
  EXPECT_EQ(pool.AccountNonce(Addr(1)), 1u);
  EXPECT_EQ(pool.size(), 0u);
  pool.RollbackAccountNonce(Addr(1), 0);
  EXPECT_EQ(pool.AccountNonce(Addr(1)), 0u);
  ASSERT_TRUE(pool.CheckInvariants());

  // The replacement's hash must be re-addable (it left the pool when it was
  // mined); the replaced tx's price bar is gone with it.
  EXPECT_EQ(pool.Add(rich), TxPool::AddOutcome::kPending);
  const auto selected = pool.SelectForBlock(8'000'000, 10);
  ASSERT_EQ(selected.size(), 1u);
  EXPECT_EQ(selected[0].gas_price, 20u);
  ASSERT_TRUE(pool.CheckInvariants());
}

TEST(TxPool, GapFillPromotesWholeTail) {
  TxPool pool;
  // Queued tail at nonces 2..5, then 0, leaving exactly one gap at 1.
  for (std::uint64_t n = 2; n <= 5; ++n)
    ASSERT_EQ(pool.Add(Tx(1, n)), TxPool::AddOutcome::kQueued);
  ASSERT_EQ(pool.Add(Tx(1, 0)), TxPool::AddOutcome::kPending);
  EXPECT_EQ(pool.pending_count(), 1u);
  EXPECT_EQ(pool.queued_count(), 4u);

  // Filling the gap must cascade: 1 becomes pending AND drags 2..5 along.
  EXPECT_EQ(pool.Add(Tx(1, 1)), TxPool::AddOutcome::kPending);
  EXPECT_EQ(pool.pending_count(), 6u);
  EXPECT_EQ(pool.queued_count(), 0u);
  const auto selected = pool.SelectForBlock(8'000'000, 10);
  ASSERT_EQ(selected.size(), 6u);
  for (std::uint64_t n = 0; n < 6; ++n) EXPECT_EQ(selected[n].nonce, n);
  ASSERT_TRUE(pool.CheckInvariants());
}

TEST(TxPool, RemoveIncludedOfQueuedOnlyTx) {
  TxPool pool;
  // Nonce 3 is queued (gap at 0..2) — it was never pending here, but another
  // node mined the sender's 0..3 and the block includes this very tx.
  const Transaction queued = Tx(1, 3);
  ASSERT_EQ(pool.Add(queued), TxPool::AddOutcome::kQueued);
  EXPECT_EQ(pool.queued_count(), 1u);

  pool.RemoveIncluded({queued});
  // Inclusion advances the account past the queued nonce and evicts the tx.
  EXPECT_EQ(pool.AccountNonce(Addr(1)), 4u);
  EXPECT_EQ(pool.size(), 0u);
  EXPECT_EQ(pool.pending_count(), 0u);
  EXPECT_EQ(pool.queued_count(), 0u);
  EXPECT_TRUE(pool.SelectForBlock(8'000'000, 10).empty());
  ASSERT_TRUE(pool.CheckInvariants());
}

// --- World transaction store ------------------------------------------------

TEST(TxStore, RegistersEachHashOnceInFirstSeenOrder) {
  TxStore store;
  const Transaction a = Tx(1, 0);
  const Transaction b = Tx(2, 0);
  EXPECT_EQ(store.Add(a), 0u);
  EXPECT_EQ(store.Add(b), 1u);
  EXPECT_EQ(store.Add(a), 0u);  // a known hash keeps its id
  EXPECT_EQ(store.size(), 2u);
  EXPECT_EQ(store[1].hash, b.hash);
  EXPECT_EQ(store.Find(a.hash), 0u);
  EXPECT_EQ(store.Find(Tx(3, 0).hash), TxStore::kNoId);
  EXPECT_GE(store.allocated_bytes(), 2 * sizeof(Transaction));
}

TEST(TxPool, PoolsOverOneStoreShareItsIds) {
  TxStore store;
  TxPool first{store};
  TxPool second{store};
  const Transaction tx = Tx(1, 0, 9, 16);
  EXPECT_EQ(first.Add(store.Add(tx)), TxPool::AddOutcome::kPending);
  // Adding the body registers nothing new: both pools hold the one id.
  EXPECT_EQ(second.Add(tx), TxPool::AddOutcome::kPending);
  EXPECT_EQ(store.size(), 1u);
  EXPECT_TRUE(second.Contains(tx.hash));

  // Selection copies the body out of the store.
  const auto selected = first.SelectForBlock(8'000'000, 10);
  ASSERT_EQ(selected.size(), 1u);
  EXPECT_EQ(selected[0].hash, tx.hash);
  EXPECT_EQ(selected[0].payload_bytes, 16u);

  // Inclusion at one pool leaves the other untouched.
  first.RemoveIncluded(selected);
  EXPECT_EQ(first.size(), 0u);
  EXPECT_EQ(second.size(), 1u);
  EXPECT_TRUE(first.CheckInvariants());
  EXPECT_TRUE(second.CheckInvariants());
}

}  // namespace
}  // namespace ethsim::chain
