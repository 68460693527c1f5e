// The block tree: one node's view of the chain — every block it has
// accepted, with total-difficulty fork choice (heaviest chain wins, ties
// broken by first-seen, as in Geth), canonical-chain maintenance with reorg
// reporting, orphan buffering, and Ethereum's uncle-candidate rules.
//
// Memory layout (DESIGN.md §12): a block's parent, height, total difficulty
// and body are the same at every node, so they live once per world in a
// chain::BlockDag. A tree is a thin view over it that holds only what
// differs between nodes: a first-seen time per DAG id (which doubles as the
// attached flag), the canonical index keyed by height offset, and the orphan
// buffers. Fork-choice walks, reorgs and uncle scans follow the DAG's parent
// ids and height lists and read the view's arrays, with no hash lookups.
#pragma once

#include <cstdint>
#include <limits>
#include <memory>
#include <unordered_map>
#include <vector>

#include "chain/block.hpp"
#include "chain/block_dag.hpp"
#include "common/time.hpp"

namespace ethsim::chain {

class BlockTree {
 public:
  using BlockId = BlockDag::BlockId;
  static constexpr BlockId kNoId = BlockDag::kNoId;

  // A view over a world's shared DAG, rooted at its genesis. The DAG must
  // outlive the view.
  explicit BlockTree(BlockDag& dag);
  // A standalone tree over a private DAG rooted at `genesis`.
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

  const Hash32& head_hash() const { return head()->hash; }
  BlockPtr head() const { return dag_->block(head_id_); }
  std::uint64_t head_number() const { return dag_->number(head_id_); }
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

  std::size_t block_count() const { return attached_; }
  std::size_t orphan_count() const { return orphans_.size(); }
  const Hash32& genesis_hash() const { return dag_->genesis()->hash; }
  std::uint64_t genesis_number() const { return dag_->genesis_number(); }
  // Heap held by this view alone (its arrays and orphan buffers, by
  // capacity); the shared DAG reports its own.
  std::size_t allocated_bytes() const;

  // Enumeration for the analysis pipeline (DAG id order).
  std::vector<BlockPtr> AllBlocks() const;
  std::vector<BlockPtr> CanonicalChain() const;  // genesis..head

  // Structural audit: the DAG's own audit, every attached block's parent is
  // attached, the canonical index walks parent-to-parent from head down to
  // genesis, and every orphan buffer waits on a block this view lacks.
  // Returns false (after naming the violated condition on stderr) instead of
  // asserting so the property tests can exercise it under any build type.
  bool CheckInvariants() const;

 private:
  // The standalone constructor's path: a view over `dag`, which it keeps.
  explicit BlockTree(std::unique_ptr<BlockDag> dag);

  // first_seen_ value of an id this view has not attached.
  static constexpr std::int64_t kDetached =
      std::numeric_limits<std::int64_t>::min();

  bool IsAttached(BlockId id) const {
    return id < first_seen_.size() && first_seen_[id] != kDetached;
  }
  // kNoId when unknown here (never seen, or only buffered as an orphan).
  BlockId FindAttached(const Hash32& hash) const;
  bool IsCanonicalId(BlockId id) const;
  BlockId& CanonicalSlot(std::uint64_t number);

  void Attach(BlockPtr block, BlockId parent, TimePoint received,
              AddResult& result);
  void MaybeReorg(BlockId candidate, AddResult& result);

  std::unique_ptr<BlockDag> owned_dag_;  // standalone trees only
  BlockDag* dag_;
  // First-seen time in µs, indexed by DAG id; kDetached where not attached.
  std::vector<std::int64_t> first_seen_;
  // DAG id of a missing parent -> blocks waiting for it, in arrival order.
  std::unordered_map<BlockId, std::vector<std::pair<BlockPtr, TimePoint>>>
      orphans_;
  // Indexed by number - genesis number; kNoId = no canonical block (retired).
  std::vector<BlockId> canonical_;
  std::size_t attached_ = 0;
  BlockId head_id_ = kNoId;
};

}  // namespace ethsim::chain
