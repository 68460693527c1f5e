// Transaction pool with Geth's pending/queued split: transactions are
// executable ("pending") only when every lower nonce from the same sender is
// known; higher-nonce arrivals wait in "queued". This is the mechanism that
// turns out-of-order propagation into extra commit latency (§III-C2).
//
// Memory layout (DESIGN.md §12): a pool holds no transaction bodies. Each
// account keeps the 4-byte chain::TxStore ids of its transactions in a
// nonce-sorted vector (accounts hold a handful of txs, so a shifted insert
// beats a std::map node allocation by a wide margin), reading nonce, price and
// hash through the store, with the length of the executable prefix maintained
// incrementally across every mutation; a run that empties releases its
// buffer. Accounts with a non-empty executable run are tracked in `heads_`, a
// persistent unsorted index with O(1) swap-erase membership — SelectForBlock
// heapifies a copy of it instead of rescanning every account, and
// pending/queued counts are running totals instead of full-pool sweeps.
#pragma once

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "chain/transaction.hpp"
#include "chain/tx_store.hpp"

namespace ethsim::chain {

class TxPool {
 public:
  using TxId = TxStore::TxId;

  // A pool over a world's shared store, which must outlive it.
  explicit TxPool(TxStore& store);
  // A standalone pool over a private store.
  TxPool();

  enum class AddOutcome {
    kPending,   // executable now
    kQueued,    // future nonce; waits for its predecessors
    kKnown,     // duplicate hash
    kStale,     // nonce below the account's current nonce
    kReplaced,  // same (sender, nonce) already pooled; kept the higher price
    kRejected,  // same (sender, nonce) at equal/lower price
  };

  // Adds the registered tx `id`.
  AddOutcome Add(TxId id);
  // Registers `tx` in the store (one lookup; a known hash keeps its id),
  // then adds it.
  AddOutcome Add(const Transaction& tx) { return Add(store_->Add(tx)); }

  // Chain-state nonce updates. Raising an account nonce drops now-stale
  // transactions and promotes newly executable ones.
  void SetAccountNonce(const Address& account, std::uint64_t nonce);
  std::uint64_t AccountNonce(const Address& account) const;

  // Lowers an account nonce to at most `nonce` (no-op if already lower).
  // Used on reorgs: a retired block's transactions become un-included, so
  // the pool's view of the sender nonce must rewind before re-adding them
  // (Geth achieves the same by resetting pool state to the new head).
  void RollbackAccountNonce(const Address& account, std::uint64_t nonce);

  // Marks a block's transactions as included: advances account nonces and
  // evicts them from the pool. Each tx costs one store lookup.
  void RemoveIncluded(const std::vector<Transaction>& txs);

  // Selects executable transactions for a new block: highest gas price
  // first, per-sender nonce order always respected, stopping at either
  // limit. (Geth's price-and-nonce heap.) The txs are copies out of the
  // store, since block bodies keep their own.
  std::vector<Transaction> SelectForBlock(std::uint64_t gas_limit,
                                          std::size_t max_txs) const;

  bool Contains(const Hash32& hash) const {
    const TxId id = store_->Find(hash);
    return id != TxStore::kNoId && known_.contains(id);
  }
  std::size_t pending_count() const { return pending_total_; }
  std::size_t queued_count() const { return known_.size() - pending_total_; }
  std::size_t size() const { return known_.size(); }
  // Accounts with a non-empty executable run (the heads_ index) — a backlog
  // shape the state sampler records over time.
  std::size_t heads_count() const { return heads_.size(); }
  // Heap held by the account runs, the account map, the known set and the
  // heads_ index (capacities; a map or set node counts as its link plus its
  // value). The store is not counted.
  std::size_t allocated_bytes() const;

  // Audits the incremental state against a from-scratch rebuild: per-account
  // nonce runs sorted and duplicate-free, cached executable-prefix lengths
  // equal to a recount, the heads_ index holding exactly the accounts with a
  // non-empty run (slot back-references consistent), the pending total
  // matching the per-account sum, every pooled id present in known_, and
  // no empty run holding a buffer.
  // Returns false (after naming the violated condition on stderr) so the
  // property tests can exercise it under any build type.
  bool CheckInvariants() const;

 private:
  static constexpr std::uint32_t kNoSlot = 0xFFFFFFFFu;

  struct Account {
    std::uint64_t next_nonce = 0;
    std::vector<TxId> txs;  // store ids, sorted by nonce, unique
    // Length of the executable prefix: the nonce of txs[i] is next_nonce + i
    // for all i < exec_count. Maintained incrementally by every mutation.
    std::uint32_t exec_count = 0;
    std::uint32_t head_slot = kNoSlot;  // index into heads_, or kNoSlot
  };

  explicit TxPool(std::unique_ptr<TxStore> store);

  const Transaction& tx(TxId id) const { return (*store_)[id]; }
  // Index of the first tx in the account's run whose nonce is >= `nonce`.
  std::size_t NonceSlot(const Account& account, std::uint64_t nonce) const;
  // Recounts the executable prefix from the sorted run.
  std::uint32_t CountExecutable(const Account& account) const;
  // Applies a new exec_count: fixes pending_total_ and heads_ membership.
  void SetExecCount(Account& account, std::uint32_t exec);
  // Raises the account nonce, dropping now-stale txs and recounting the run.
  void RaiseNonce(Account& account, std::uint64_t nonce);

  std::unique_ptr<TxStore> owned_store_;  // standalone pools only
  TxStore* store_;
  std::unordered_map<Address, Account> accounts_;
  std::unordered_set<TxId> known_;
  // Accounts with exec_count > 0; unsorted, swap-erase maintained.
  std::vector<Account*> heads_;
  std::size_t pending_total_ = 0;
};

}  // namespace ethsim::chain
