// The world block DAG: everything about a block that is the same at every
// node, held once per world. A block's parent, height and total difficulty
// follow from the block alone, so the per-node chain views
// (chain::BlockTree) keep only what differs between nodes — when a block was
// first seen and which blocks are attached and canonical — and index it by
// the dense ids handed out here (DESIGN.md §12).
//
// Ids come from one HashInterner in first-intern order. An id may be
// reserved before its block is recorded: a view interns an orphan's missing
// parent so the orphan can wait on it, and a node interns a hash it has only
// heard announced. The per-link known-block caches hold the same ids.
//
// Lifetime contract: the DAG holds BlockPtrs into a BlockArena declared
// before it, and outlives every view over it (core::Experiment owns one next
// to its arena; a standalone BlockTree owns a private one).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "chain/block.hpp"
#include "chain/interner.hpp"

namespace ethsim::chain {

class BlockDag {
 public:
  using BlockId = HashInterner::Id;
  static constexpr BlockId kNoId = HashInterner::kNoId;

  // The DAG is rooted at a genesis block, recorded as id 0 (its number may be
  // nonzero so runs can start at paper-era heights like 7,479,573).
  explicit BlockDag(BlockPtr genesis);
  BlockDag(const BlockDag&) = delete;
  BlockDag& operator=(const BlockDag&) = delete;

  // The dense id of `hash`, reserving the next one on first sight.
  BlockId Intern(const Hash32& hash);
  // kNoId when the hash was never interned.
  BlockId Find(const Hash32& hash) const { return ids_.Find(hash); }

  // Records `block` as the child of the recorded block `parent` and returns
  // its id. A block some view recorded before keeps its entry.
  BlockId Record(BlockPtr block, BlockId parent);

  // An id is recorded once its block is known; a reserved id has no entry.
  bool recorded(BlockId id) const { return entries_[id].block != nullptr; }
  BlockPtr block(BlockId id) const { return entries_[id].block; }
  BlockId parent(BlockId id) const { return entries_[id].parent; }
  std::uint64_t number(BlockId id) const { return entries_[id].number; }
  std::uint64_t total_difficulty(BlockId id) const {
    return entries_[id].total_difficulty;
  }
  // Recorded ids at a height, in record order; empty outside the range.
  std::span<const BlockId> AtHeight(std::uint64_t number) const;

  BlockId genesis_id() const { return 0; }
  BlockPtr genesis() const { return entries_[0].block; }
  std::uint64_t genesis_number() const { return entries_[0].number; }
  // Ids handed out (recorded and reserved); every id is below this.
  std::size_t size() const { return entries_.size(); }
  // Heap held by the index, the entries and the height lists (capacities).
  std::size_t allocated_bytes() const;

  // Structural audit: every recorded entry matches its block (hash, parent
  // hash, height one above its parent's, total difficulty telescoping from
  // genesis), reserved ids carry no entry, and each recorded id sits exactly
  // once in its own height's list. Returns false after naming the violated
  // condition on stderr.
  bool CheckInvariants() const;

 private:
  struct Entry {
    BlockPtr block = nullptr;  // nullptr: id reserved, block not recorded
    std::uint64_t total_difficulty = 0;
    std::uint64_t number = 0;
    BlockId parent = kNoId;
  };

  HashInterner ids_;
  std::vector<Entry> entries_;  // indexed by id
  // Indexed by number - genesis number.
  std::vector<std::vector<BlockId>> by_height_;
};

}  // namespace ethsim::chain
