// The block tree: every block a node has ever accepted, with total-difficulty
// fork choice (heaviest chain wins, ties broken by first-seen, as in Geth),
// canonical-chain maintenance with reorg reporting, orphan buffering, and
// Ethereum's uncle-candidate rules.
//
// Memory layout (DESIGN.md §12): block hashes are interned to dense uint32
// ids and nodes live in a contiguous arena indexed by id — the hash-keyed
// unordered_maps the tree used to carry (nodes/by_height/canonical) are now
// one open-addressing probe into the interner followed by vector indexing.
// Tree shape is explicit via parent/first-child/next-sibling links, and the
// per-height and canonical indexes are id vectors keyed by height offset.
// Block bodies themselves are owned by a chain::BlockArena elsewhere; the
// tree holds borrowed BlockPtr handles.
#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "chain/block.hpp"
#include "chain/interner.hpp"
#include "common/time.hpp"

namespace ethsim::chain {

class BlockTree {
 public:
  using BlockId = HashInterner::Id;
  static constexpr BlockId kNoId = HashInterner::kNoId;

  // The tree is rooted at a genesis block (number may be nonzero so runs can
  // start at paper-era heights like 7,479,573).
  explicit BlockTree(BlockPtr genesis);

  enum class AddOutcome {
    kAdded,          // accepted, head unchanged
    kAddedNewHead,   // accepted and became (part of) the canonical chain
    kDuplicate,      // already known
    kOrphaned,       // parent unknown; buffered until the parent arrives
  };

  // One canonical-chain change: `block` joined the chain (adopted) or left
  // it (retired).
  struct ChainEdit {
    BlockPtr block = nullptr;
    bool adopted = false;
  };

  struct AddResult {
    AddOutcome outcome = AddOutcome::kAdded;
    // Every canonical-chain change of this Add, in the order the tree made
    // them: per head switch, its retirements oldest first, then its
    // adoptions oldest first. One Add can switch the head several times
    // (attaching a block also attaches the orphans waiting on it), and a
    // block adopted by one switch can be retired by the next, so consumers
    // replay the list in order.
    std::vector<ChainEdit> edits;
  };

  AddResult Add(BlockPtr block, TimePoint received);

  bool Contains(const Hash32& hash) const;
  BlockPtr Get(const Hash32& hash) const;  // nullptr if unknown
  TimePoint FirstSeen(const Hash32& hash) const;

  const Hash32& head_hash() const { return head_; }
  BlockPtr head() const { return nodes_[head_id_].block; }
  std::uint64_t head_number() const;
  std::uint64_t TotalDifficulty(const Hash32& hash) const;

  bool IsCanonical(const Hash32& hash) const;
  // Canonical hash at a height; zero hash if above head or below genesis.
  Hash32 CanonicalAt(std::uint64_t number) const;

  // Valid uncle references for a block built on `parent`: known non-ancestor
  // blocks within 6 generations whose parent is an ancestor of the new block
  // and which are not already referenced by the parent's recent ancestry.
  // Deterministic order (first-seen, then hash); at most `max_uncles`.
  // `forbid_same_miner_as_main` applies the paper's §V proposal: a block
  // whose miner already produced the main-chain block at the same height is
  // not an acceptable uncle (kills the one-miner-fork reward).
  std::vector<BlockHeader> UncleCandidates(
      const Hash32& parent, std::size_t max_uncles = 2,
      bool forbid_same_miner_as_main = false) const;

  // All known block hashes at a height (canonical and forks).
  std::vector<Hash32> HashesAtHeight(std::uint64_t number) const;

  std::size_t block_count() const { return attached_; }
  std::size_t orphan_count() const { return orphans_.size(); }
  // Hash-interner occupancy in permille (size * 1000 / slots), for the
  // state sampler's arena-health series. 750 is the grow threshold.
  std::size_t interner_load_permille() const {
    return interner_.slot_count() == 0
               ? 0
               : interner_.size() * 1000 / interner_.slot_count();
  }
  std::size_t interned_hashes() const { return interner_.size(); }
  const Hash32& genesis_hash() const { return genesis_; }
  std::uint64_t genesis_number() const { return genesis_number_; }

  // Enumeration for the analysis pipeline (attach order).
  std::vector<BlockPtr> AllBlocks() const;
  std::vector<BlockPtr> CanonicalChain() const;  // genesis..head

  // Structural audit: arena links form a tree rooted at genesis (acyclic,
  // parent/child mutually consistent), total difficulty and heights
  // telescope along parent links, the canonical index walks
  // parent-to-parent from head down to genesis, and every height-bucket
  // entry is attached. Returns false (after naming the violated condition
  // on stderr) instead of asserting so the property tests can exercise it
  // under any build type.
  bool CheckInvariants() const;

 private:
  struct Node {
    BlockPtr block = nullptr;  // nullptr: id reserved (orphan parent ref)
    std::uint64_t total_difficulty = 0;
    TimePoint first_seen;
    BlockId parent = kNoId;
    BlockId first_child = kNoId;
    BlockId next_sibling = kNoId;
  };

  // Interns `hash`, growing the node arena so ids always index into it.
  BlockId InternNode(const Hash32& hash);
  // kNoId when unknown OR known only as an orphan's missing parent.
  BlockId FindAttached(const Hash32& hash) const;

  std::vector<BlockId>& HeightBucket(std::uint64_t number);
  BlockId& CanonicalSlot(std::uint64_t number);

  void Attach(BlockPtr block, TimePoint received, AddResult& result);
  void MaybeReorg(BlockId candidate, AddResult& result);

  HashInterner interner_;
  std::vector<Node> nodes_;  // indexed by interned id
  // interned parent id -> blocks waiting for that parent.
  std::unordered_map<BlockId, std::vector<std::pair<BlockPtr, TimePoint>>>
      orphans_;
  // Indexed by number - genesis_number_.
  std::vector<std::vector<BlockId>> by_height_;
  std::vector<BlockId> canonical_;  // kNoId = no canonical block (retired)
  std::size_t attached_ = 0;        // nodes with a block (excludes reserved)
  Hash32 genesis_;
  std::uint64_t genesis_number_ = 0;
  Hash32 head_;
  BlockId genesis_id_ = kNoId;
  BlockId head_id_ = kNoId;
};

}  // namespace ethsim::chain
