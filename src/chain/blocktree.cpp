#include "chain/blocktree.hpp"

#include <algorithm>
#include <cassert>
#include <cstdio>

namespace ethsim::chain {

BlockTree::BlockTree(BlockDag& dag) : dag_(&dag) {
  const BlockId genesis = dag_->genesis_id();
  first_seen_.assign(dag_->size(), kDetached);
  first_seen_[genesis] = TimePoint{}.micros();
  attached_ = 1;
  head_id_ = genesis;
  canonical_.push_back(genesis);
}

BlockTree::BlockTree(BlockPtr genesis)
    : BlockTree(std::make_unique<BlockDag>(genesis)) {}

BlockTree::BlockTree(std::unique_ptr<BlockDag> dag) : BlockTree(*dag) {
  owned_dag_ = std::move(dag);
}

BlockTree::BlockId BlockTree::FindAttached(const Hash32& hash) const {
  const BlockId id = dag_->Find(hash);
  return id != kNoId && IsAttached(id) ? id : kNoId;
}

bool BlockTree::IsCanonicalId(BlockId id) const {
  const std::size_t index = dag_->number(id) - genesis_number();
  return index < canonical_.size() && canonical_[index] == id;
}

BlockTree::BlockId& BlockTree::CanonicalSlot(std::uint64_t number) {
  const std::size_t index = number - genesis_number();
  if (index >= canonical_.size()) canonical_.resize(index + 1, kNoId);
  return canonical_[index];
}

bool BlockTree::Contains(const Hash32& hash) const {
  return FindAttached(hash) != kNoId;
}

BlockPtr BlockTree::Get(const Hash32& hash) const {
  const BlockId id = FindAttached(hash);
  return id == kNoId ? nullptr : dag_->block(id);
}

TimePoint BlockTree::FirstSeen(const Hash32& hash) const {
  const BlockId id = FindAttached(hash);
  return id == kNoId ? TimePoint{} : TimePoint::FromMicros(first_seen_[id]);
}

std::uint64_t BlockTree::TotalDifficulty(const Hash32& hash) const {
  const BlockId id = FindAttached(hash);
  return id == kNoId ? 0 : dag_->total_difficulty(id);
}

bool BlockTree::IsCanonical(const Hash32& hash) const {
  const BlockId id = FindAttached(hash);
  return id != kNoId && IsCanonicalId(id);
}

Hash32 BlockTree::CanonicalAt(std::uint64_t number) const {
  if (number < genesis_number()) return Hash32{};
  const std::size_t index = number - genesis_number();
  if (index >= canonical_.size() || canonical_[index] == kNoId)
    return Hash32{};
  return dag_->block(canonical_[index])->hash;
}

BlockTree::AddResult BlockTree::Add(BlockPtr block, TimePoint received) {
  assert(block);
  AddResult result;
  if (FindAttached(block->hash) != kNoId) {
    result.outcome = AddOutcome::kDuplicate;
    return result;
  }
  const BlockId parent = FindAttached(block->header.parent_hash);
  if (parent == kNoId) {
    // Buffer until the parent shows up (announcement/fetch races make this
    // a normal occurrence, not an error). Interning the missing parent
    // reserves its DAG id, so the eventual attach finds the waiters directly.
    orphans_[dag_->Intern(block->header.parent_hash)].emplace_back(block,
                                                                   received);
    result.outcome = AddOutcome::kOrphaned;
    return result;
  }

  Attach(block, parent, received, result);
  return result;
}

void BlockTree::Attach(BlockPtr block, BlockId parent, TimePoint received,
                       AddResult& result) {
  const BlockId id = dag_->Record(block, parent);
  // A block buffered twice as an orphan is drained twice; the second attach
  // finds it attached and changes nothing (the first one already drained its
  // own waiters, and the head is at least as heavy as it).
  if (IsAttached(id)) return;
  if (id >= first_seen_.size()) first_seen_.resize(dag_->size(), kDetached);
  first_seen_[id] = received.micros();
  ++attached_;

  MaybeReorg(id, result);

  // Adopt any orphans that were waiting for this block, recursively.
  if (const auto it = orphans_.find(id); it != orphans_.end()) {
    auto waiting = std::move(it->second);
    orphans_.erase(it);
    for (auto& [child, child_received] : waiting)
      Attach(child, id, child_received, result);
  }
}

void BlockTree::MaybeReorg(BlockId candidate, AddResult& result) {
  // Heaviest chain wins; on exact ties keep the first-seen head (Geth keeps
  // its current chain unless the new one is strictly heavier... except that
  // Geth 1.8 actually coin-flips equal-difficulty reorgs; we keep
  // first-seen for determinism, which is also what the paper's measurement
  // nodes effectively record).
  if (dag_->total_difficulty(candidate) <=
      dag_->total_difficulty(head_id_)) {
    if (result.outcome != AddOutcome::kAddedNewHead)
      result.outcome = AddOutcome::kAdded;
    return;
  }

  // Walk the new head's ancestry down to the first block that is already
  // canonical (genesis always is); everything above it on the old chain
  // retires.
  BlockId fork = candidate;
  while (!IsCanonicalId(fork)) fork = dag_->parent(fork);
  const std::uint64_t fork_point = dag_->number(fork);

  const std::uint64_t old_head_number = dag_->number(head_id_);
  for (std::uint64_t h = fork_point + 1; h <= old_head_number; ++h) {
    BlockId& slot = canonical_[h - genesis_number()];
    if (slot == kNoId) break;
    result.edits.push_back({dag_->block(slot), false});
    slot = kNoId;
  }

  // The adoptions follow this switch's retirements, oldest first.
  const std::size_t first_adopted = result.edits.size();
  for (BlockId id = candidate; id != fork; id = dag_->parent(id)) {
    result.edits.push_back({dag_->block(id), true});
    CanonicalSlot(dag_->number(id)) = id;
  }
  std::reverse(result.edits.begin() + first_adopted, result.edits.end());

  head_id_ = candidate;
  result.outcome = AddOutcome::kAddedNewHead;
}

std::vector<BlockHeader> BlockTree::UncleCandidates(
    const Hash32& parent, std::size_t max_uncles,
    bool forbid_same_miner_as_main) const {
  const BlockId parent_id = FindAttached(parent);
  if (parent_id == kNoId) return {};
  const std::uint64_t child_number = dag_->number(parent_id) + 1;

  // Collect up to 7 ancestors of the child (starting at the parent) plus the
  // uncle hashes they already reference; both are excluded.
  std::vector<BlockId> ancestors;
  std::vector<Hash32> excluded;
  std::unordered_map<std::uint64_t, Address> main_miner_at;  // per height
  BlockId cursor = parent_id;
  for (int depth = 0; depth < 7; ++depth) {
    const BlockPtr block = dag_->block(cursor);
    ancestors.push_back(cursor);
    excluded.push_back(block->hash);
    main_miner_at.emplace(block->header.number, block->header.miner);
    for (const auto& u : block->uncles) excluded.push_back(u.Hash());
    if (cursor == dag_->genesis_id()) break;
    cursor = dag_->parent(cursor);
  }

  auto is_excluded = [&](const Hash32& h) {
    return std::find(excluded.begin(), excluded.end(), h) != excluded.end();
  };
  auto is_ancestor = [&](BlockId id) {
    return std::find(ancestors.begin(), ancestors.end(), id) !=
           ancestors.end();
  };

  struct Candidate {
    BlockHeader header;
    std::int64_t first_seen;
    Hash32 hash;
  };
  std::vector<Candidate> candidates;
  const std::uint64_t min_height =
      child_number > 6 ? child_number - 6 : genesis_number();
  for (std::uint64_t h = min_height; h < child_number; ++h) {
    // The DAG lists every block recorded at this height by any view; the
    // ones this view has not attached are not known here.
    for (const BlockId id : dag_->AtHeight(h)) {
      if (!IsAttached(id)) continue;
      const BlockPtr block = dag_->block(id);
      if (is_excluded(block->hash)) continue;
      // Yellow-paper rule: the uncle's parent must be an ancestor of the
      // including block (i.e., the uncle is a sibling of some ancestor).
      if (!is_ancestor(dag_->parent(id))) continue;
      // §V proposal: no uncle credit to a miner that already holds the
      // main-chain slot at the same height.
      if (forbid_same_miner_as_main) {
        const auto main_it = main_miner_at.find(h);
        if (main_it != main_miner_at.end() &&
            main_it->second == block->header.miner)
          continue;
      }
      candidates.push_back({block->header, first_seen_[id], block->hash});
    }
  }

  // (first_seen, hash) is a total order over distinct blocks, so the result
  // does not depend on the order the DAG recorded them in.
  std::sort(candidates.begin(), candidates.end(),
            [](const auto& a, const auto& b) {
              if (a.first_seen != b.first_seen)
                return a.first_seen < b.first_seen;
              return a.hash < b.hash;
            });
  if (candidates.size() > max_uncles) candidates.resize(max_uncles);

  std::vector<BlockHeader> out;
  out.reserve(candidates.size());
  for (auto& c : candidates) out.push_back(c.header);
  return out;
}

std::size_t BlockTree::allocated_bytes() const {
  std::size_t total = first_seen_.capacity() * sizeof(first_seen_[0]) +
                      canonical_.capacity() * sizeof(BlockId);
  // Orphan buffers: the bucket array, one map node per waited-on parent and
  // each waiting list's capacity.
  total += orphans_.bucket_count() * sizeof(void*);
  for (const auto& [parent, waiting] : orphans_)
    total += sizeof(void*) + sizeof(parent) + sizeof(waiting) +
             waiting.capacity() * sizeof(waiting[0]);
  return total;
}

std::vector<BlockPtr> BlockTree::AllBlocks() const {
  std::vector<BlockPtr> out;
  out.reserve(attached_);
  for (BlockId id = 0; id < first_seen_.size(); ++id)
    if (IsAttached(id)) out.push_back(dag_->block(id));
  return out;
}

std::vector<BlockPtr> BlockTree::CanonicalChain() const {
  std::vector<BlockPtr> out;
  out.reserve(canonical_.size());
  for (std::uint64_t h = genesis_number(); h <= head_number(); ++h) {
    const BlockId id = canonical_[h - genesis_number()];
    assert(id != kNoId);
    out.push_back(dag_->block(id));
  }
  return out;
}

bool BlockTree::CheckInvariants() const {
#define ETHSIM_TREE_CHECK(cond)                                             \
  do {                                                                      \
    if (!(cond)) {                                                          \
      std::fprintf(stderr, "BlockTree invariant violated: %s (%s:%d)\n",    \
                   #cond, __FILE__, __LINE__);                              \
      return false;                                                         \
    }                                                                       \
  } while (0)

  ETHSIM_TREE_CHECK(dag_->CheckInvariants());
  ETHSIM_TREE_CHECK(first_seen_.size() <= dag_->size());

  // Attached blocks are recorded in the DAG and hang off attached parents,
  // so the attached set is a subtree rooted at genesis.
  std::size_t attached_seen = 0;
  for (BlockId id = 0; id < first_seen_.size(); ++id) {
    if (!IsAttached(id)) continue;
    ++attached_seen;
    ETHSIM_TREE_CHECK(dag_->recorded(id));
    if (id != dag_->genesis_id())
      ETHSIM_TREE_CHECK(IsAttached(dag_->parent(id)));
  }
  ETHSIM_TREE_CHECK(IsAttached(dag_->genesis_id()));
  ETHSIM_TREE_CHECK(attached_seen == attached_);

  // Canonical index: contiguous genesis..head, linked parent-to-parent.
  ETHSIM_TREE_CHECK(IsAttached(head_id_));
  const std::uint64_t top = head_number();
  ETHSIM_TREE_CHECK(top - genesis_number() < canonical_.size());
  ETHSIM_TREE_CHECK(canonical_[top - genesis_number()] == head_id_);
  ETHSIM_TREE_CHECK(canonical_[0] == dag_->genesis_id());
  for (std::uint64_t h = genesis_number(); h <= top; ++h) {
    const BlockId id = canonical_[h - genesis_number()];
    ETHSIM_TREE_CHECK(id != kNoId && IsAttached(id));
    ETHSIM_TREE_CHECK(dag_->number(id) == h);
    if (h > genesis_number())
      ETHSIM_TREE_CHECK(dag_->parent(id) ==
                        canonical_[h - 1 - genesis_number()]);
  }
  for (std::size_t index = top - genesis_number() + 1;
       index < canonical_.size(); ++index)
    ETHSIM_TREE_CHECK(canonical_[index] == kNoId);

  // Orphan buffers wait on blocks this view has not attached (attaching a
  // block drains its waiters), and each waiting block names that parent.
  for (const auto& [parent_id, waiting] : orphans_) {
    ETHSIM_TREE_CHECK(parent_id < dag_->size() && !IsAttached(parent_id));
    ETHSIM_TREE_CHECK(!waiting.empty());
    for (const auto& [block, received] : waiting)
      ETHSIM_TREE_CHECK(dag_->Find(block->header.parent_hash) == parent_id);
  }
#undef ETHSIM_TREE_CHECK
  return true;
}

}  // namespace ethsim::chain
