#include "chain/txpool.hpp"

#include <algorithm>
#include <cstdio>

namespace ethsim::chain {

TxPool::TxPool(TxStore& store) : store_(&store) {}

TxPool::TxPool() : TxPool(std::make_unique<TxStore>()) {}

TxPool::TxPool(std::unique_ptr<TxStore> store) : TxPool(*store) {
  owned_store_ = std::move(store);
}

std::size_t TxPool::NonceSlot(const Account& account,
                              std::uint64_t nonce) const {
  return static_cast<std::size_t>(
      std::lower_bound(
          account.txs.begin(), account.txs.end(), nonce,
          [this](TxId id, std::uint64_t n) { return tx(id).nonce < n; }) -
      account.txs.begin());
}

std::uint32_t TxPool::CountExecutable(const Account& account) const {
  std::uint32_t n = 0;
  for (std::size_t i = NonceSlot(account, account.next_nonce);
       i < account.txs.size() &&
       tx(account.txs[i]).nonce == account.next_nonce + n;
       ++i)
    ++n;
  return n;
}

void TxPool::SetExecCount(Account& account, std::uint32_t exec) {
  pending_total_ += exec;
  pending_total_ -= account.exec_count;
  account.exec_count = exec;
  if (exec > 0 && account.head_slot == kNoSlot) {
    account.head_slot = static_cast<std::uint32_t>(heads_.size());
    heads_.push_back(&account);
  } else if (exec == 0 && account.head_slot != kNoSlot) {
    const std::uint32_t slot = account.head_slot;
    heads_[slot] = heads_.back();
    heads_[slot]->head_slot = slot;
    heads_.pop_back();
    account.head_slot = kNoSlot;
  }
}

TxPool::AddOutcome TxPool::Add(TxId id) {
  if (known_.contains(id)) return AddOutcome::kKnown;

  const Transaction& added = tx(id);
  Account& account = accounts_[added.sender];
  if (added.nonce < account.next_nonce) return AddOutcome::kStale;

  const std::size_t slot = NonceSlot(account, added.nonce);
  if (slot < account.txs.size() && tx(account.txs[slot]).nonce == added.nonce) {
    // Same-slot replacement requires a strictly better price (Geth demands a
    // 10% bump; strict improvement is the behaviour that matters here).
    // The executable prefix is untouched: the slot stays occupied.
    TxId& pooled = account.txs[slot];
    if (added.gas_price <= tx(pooled).gas_price) return AddOutcome::kRejected;
    known_.erase(pooled);
    pooled = id;
    known_.insert(id);
    return AddOutcome::kReplaced;
  }

  account.txs.insert(account.txs.begin() + slot, id);
  known_.insert(id);
  if (added.nonce == account.next_nonce + account.exec_count) {
    // Filled the first gap: the run extends over the new tx and then over
    // any queued txs the gap was holding back (promotion cascade).
    std::uint32_t exec = account.exec_count + 1;
    while (exec < account.txs.size() &&
           tx(account.txs[exec]).nonce == account.next_nonce + exec)
      ++exec;
    SetExecCount(account, exec);
  }
  return added.nonce < account.next_nonce + account.exec_count
             ? AddOutcome::kPending
             : AddOutcome::kQueued;
}

void TxPool::RaiseNonce(Account& account, std::uint64_t nonce) {
  if (nonce <= account.next_nonce) return;
  account.next_nonce = nonce;
  // Drop transactions made stale by the nonce jump.
  const auto stale_end = account.txs.begin() + NonceSlot(account, nonce);
  for (auto it = account.txs.begin(); it != stale_end; ++it) known_.erase(*it);
  account.txs.erase(account.txs.begin(), stale_end);
  if (account.txs.empty()) account.txs = std::vector<TxId>();  // release
  SetExecCount(account, CountExecutable(account));
}

void TxPool::SetAccountNonce(const Address& account, std::uint64_t nonce) {
  RaiseNonce(accounts_[account], nonce);
}

void TxPool::RollbackAccountNonce(const Address& account_addr,
                                  std::uint64_t nonce) {
  Account& account = accounts_[account_addr];
  if (nonce < account.next_nonce) {
    account.next_nonce = nonce;
    // Pooled nonces all sit at or above the old next_nonce, so the rewind
    // opens a gap and the executable run collapses until the retired
    // transactions are re-added.
    SetExecCount(account, CountExecutable(account));
  }
}

std::uint64_t TxPool::AccountNonce(const Address& account) const {
  const auto it = accounts_.find(account);
  return it == accounts_.end() ? 0 : it->second.next_nonce;
}

void TxPool::RemoveIncluded(const std::vector<Transaction>& txs) {
  for (const auto& included : txs) {
    if (const TxId id = store_->Find(included.hash); id != TxStore::kNoId)
      known_.erase(id);
    Account& account = accounts_[included.sender];
    const std::size_t slot = NonceSlot(account, included.nonce);
    // If the pooled tx at this (sender, nonce) is a replacement with a
    // different hash, only the pool slot is dropped here — its id stays in
    // known_ (long-standing quirk, kept bit-for-bit: dedup against a
    // replaced-then-included tx still answers "known").
    if (slot < account.txs.size() &&
        tx(account.txs[slot]).nonce == included.nonce)
      account.txs.erase(account.txs.begin() + slot);
    // A dropped slot always sat at or above the account nonce, so this
    // raise runs and releases the run if the drop emptied it.
    RaiseNonce(account, included.nonce + 1);
  }
}

std::vector<Transaction> TxPool::SelectForBlock(std::uint64_t gas_limit,
                                                std::size_t max_txs) const {
  // Price-and-nonce selection: a heap of per-account cursors keyed by the
  // gas price of the account's lowest executable nonce. Seeded from the
  // persistent heads_ index — only accounts with executable work, no
  // full-pool sweep. (gas_price, hash) keys are strictly distinct, so the
  // pop order is the same whatever the seed order.
  struct Cursor {
    const Transaction* tx;    // the store's body of account->txs[pos]
    const Account* account;
    std::uint32_t pos;        // index into account->txs
    std::uint32_t remaining;  // executable txs left for this account
  };
  auto price_less = [](const Cursor& a, const Cursor& b) {
    if (a.tx->gas_price != b.tx->gas_price)
      return a.tx->gas_price < b.tx->gas_price;
    // Deterministic tie-break on tx hash.
    return a.tx->hash < b.tx->hash;
  };

  std::vector<Cursor> heap;
  heap.reserve(heads_.size());
  for (const Account* account : heads_)
    heap.push_back({&tx(account->txs[0]), account, 0, account->exec_count});
  std::make_heap(heap.begin(), heap.end(), price_less);

  std::vector<Transaction> out;
  std::uint64_t gas_used = 0;
  while (!heap.empty() && out.size() < max_txs) {
    std::pop_heap(heap.begin(), heap.end(), price_less);
    const Cursor cur = heap.back();
    heap.pop_back();
    if (gas_used + cur.tx->gas_limit > gas_limit) continue;  // account blocked on gas
    gas_used += cur.tx->gas_limit;
    out.push_back(*cur.tx);
    if (cur.remaining > 1) {
      const std::uint32_t pos = cur.pos + 1;
      heap.push_back(
          {&tx(cur.account->txs[pos]), cur.account, pos, cur.remaining - 1});
      std::push_heap(heap.begin(), heap.end(), price_less);
    }
  }
  return out;
}

std::size_t TxPool::allocated_bytes() const {
  std::size_t total =
      accounts_.bucket_count() * sizeof(void*) +
      accounts_.size() * (sizeof(void*) + sizeof(*accounts_.begin())) +
      known_.bucket_count() * sizeof(void*) +
      known_.size() * (sizeof(void*) + sizeof(TxId)) +
      heads_.capacity() * sizeof(Account*);
  for (const auto& [addr, account] : accounts_)
    total += account.txs.capacity() * sizeof(TxId);
  return total;
}

bool TxPool::CheckInvariants() const {
#define ETHSIM_POOL_CHECK(cond)                                            \
  do {                                                                     \
    if (!(cond)) {                                                         \
      std::fprintf(stderr, "TxPool invariant violated: %s (%s:%d)\n",      \
                   #cond, __FILE__, __LINE__);                             \
      return false;                                                        \
    }                                                                      \
  } while (0)

  std::size_t pending_sum = 0;
  std::size_t pooled = 0;
  std::size_t with_heads = 0;
  for (const auto& [addr, account] : accounts_) {
    for (std::size_t i = 0; i < account.txs.size(); ++i) {
      const TxId id = account.txs[i];
      ETHSIM_POOL_CHECK(id < store_->size());
      ETHSIM_POOL_CHECK(tx(id).sender == addr);
      ETHSIM_POOL_CHECK(tx(id).nonce >= account.next_nonce);
      if (i > 0) ETHSIM_POOL_CHECK(tx(account.txs[i - 1]).nonce < tx(id).nonce);
      ETHSIM_POOL_CHECK(known_.contains(id));
    }
    ETHSIM_POOL_CHECK(!account.txs.empty() || account.txs.capacity() == 0);
    // The cached run length must equal a from-scratch recount, and a
    // non-empty run always starts at the vector front.
    ETHSIM_POOL_CHECK(account.exec_count == CountExecutable(account));
    if (account.exec_count > 0) {
      ETHSIM_POOL_CHECK(tx(account.txs.front()).nonce == account.next_nonce);
      ETHSIM_POOL_CHECK(account.head_slot != kNoSlot &&
                        account.head_slot < heads_.size());
      ETHSIM_POOL_CHECK(heads_[account.head_slot] == &account);
      ++with_heads;
    } else {
      ETHSIM_POOL_CHECK(account.head_slot == kNoSlot);
    }
    pending_sum += account.exec_count;
    pooled += account.txs.size();
  }
  ETHSIM_POOL_CHECK(pending_sum == pending_total_);
  ETHSIM_POOL_CHECK(with_heads == heads_.size());
  // known_ can run ahead of the pooled set (RemoveIncluded replacement
  // quirk) but never behind it.
  ETHSIM_POOL_CHECK(known_.size() >= pooled);
#undef ETHSIM_POOL_CHECK
  return true;
}

}  // namespace ethsim::chain
