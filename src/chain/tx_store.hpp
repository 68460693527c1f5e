// The world transaction store: every transaction of a world, held once under
// a dense 32-bit id. A transaction is immutable and the same at every node,
// so the per-node pools, the broadcast queues and the Transactions messages
// carry its id and read its body here (DESIGN.md §12).
//
// Ids come from one HashInterner over the tx hashes, in first-registration
// order, and the per-link known-tx caches hold the same ids. A node registers
// a tx when it is submitted; every later step of its relay reads it by id, so
// no delivery hashes it again.
//
// Lifetime contract: the store outlives every pool and node over it
// (core::Experiment owns one next to its block DAG; a standalone TxPool owns
// a private one). One store per world, never process-global: worlds on
// parallel threads each own their own.
#pragma once

#include <cstdint>
#include <vector>

#include "chain/interner.hpp"
#include "chain/transaction.hpp"

namespace ethsim::chain {

class TxStore {
 public:
  using TxId = HashInterner::Id;
  static constexpr TxId kNoId = HashInterner::kNoId;

  TxStore() = default;
  TxStore(const TxStore&) = delete;
  TxStore& operator=(const TxStore&) = delete;

  // The id of `tx`, registering it on first sight. A tx whose hash is
  // already registered keeps its id and its stored body.
  TxId Add(const Transaction& tx) {
    const TxId id = ids_.Intern(tx.hash);
    if (id == txs_.size()) txs_.push_back(tx);
    return id;
  }

  // kNoId when no tx with this hash was registered.
  TxId Find(const Hash32& hash) const { return ids_.Find(hash); }

  // The body of a registered tx. The reference is valid until the next Add.
  const Transaction& operator[](TxId id) const { return txs_[id]; }

  std::size_t size() const { return txs_.size(); }
  // Heap held by the hash index and the bodies (capacities).
  std::size_t allocated_bytes() const {
    return ids_.allocated_bytes() + txs_.capacity() * sizeof(Transaction);
  }

 private:
  HashInterner ids_;
  std::vector<Transaction> txs_;  // indexed by id
};

}  // namespace ethsim::chain
