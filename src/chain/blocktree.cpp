#include "chain/blocktree.hpp"

#include <algorithm>
#include <cassert>
#include <cstdio>

namespace ethsim::chain {

BlockTree::BlockTree(BlockPtr genesis) {
  assert(genesis && genesis->hash == genesis->header.Hash());
  genesis_ = genesis->hash;
  genesis_number_ = genesis->header.number;
  head_ = genesis_;
  genesis_id_ = InternNode(genesis_);
  head_id_ = genesis_id_;
  Node& node = nodes_[genesis_id_];
  node.block = genesis;
  node.total_difficulty = genesis->header.difficulty;
  ++attached_;
  HeightBucket(genesis_number_).push_back(genesis_id_);
  CanonicalSlot(genesis_number_) = genesis_id_;
}

BlockTree::BlockId BlockTree::InternNode(const Hash32& hash) {
  const BlockId id = interner_.Intern(hash);
  if (id >= nodes_.size()) nodes_.resize(id + 1);
  return id;
}

BlockTree::BlockId BlockTree::FindAttached(const Hash32& hash) const {
  const BlockId id = interner_.Find(hash);
  if (id == kNoId || nodes_[id].block == nullptr) return kNoId;
  return id;
}

std::vector<BlockTree::BlockId>& BlockTree::HeightBucket(
    std::uint64_t number) {
  const std::size_t index = number - genesis_number_;
  if (index >= by_height_.size()) by_height_.resize(index + 1);
  return by_height_[index];
}

BlockTree::BlockId& BlockTree::CanonicalSlot(std::uint64_t number) {
  const std::size_t index = number - genesis_number_;
  if (index >= canonical_.size()) canonical_.resize(index + 1, kNoId);
  return canonical_[index];
}

bool BlockTree::Contains(const Hash32& hash) const {
  return FindAttached(hash) != kNoId;
}

BlockPtr BlockTree::Get(const Hash32& hash) const {
  const BlockId id = FindAttached(hash);
  return id == kNoId ? nullptr : nodes_[id].block;
}

TimePoint BlockTree::FirstSeen(const Hash32& hash) const {
  const BlockId id = FindAttached(hash);
  return id == kNoId ? TimePoint{} : nodes_[id].first_seen;
}

std::uint64_t BlockTree::head_number() const {
  return nodes_[head_id_].block->header.number;
}

std::uint64_t BlockTree::TotalDifficulty(const Hash32& hash) const {
  const BlockId id = FindAttached(hash);
  return id == kNoId ? 0 : nodes_[id].total_difficulty;
}

bool BlockTree::IsCanonical(const Hash32& hash) const {
  const BlockId id = FindAttached(hash);
  if (id == kNoId) return false;
  const std::size_t index =
      nodes_[id].block->header.number - genesis_number_;
  return index < canonical_.size() && canonical_[index] == id;
}

Hash32 BlockTree::CanonicalAt(std::uint64_t number) const {
  if (number < genesis_number_) return Hash32{};
  const std::size_t index = number - genesis_number_;
  if (index >= canonical_.size() || canonical_[index] == kNoId)
    return Hash32{};
  return interner_.Resolve(canonical_[index]);
}

BlockTree::AddResult BlockTree::Add(BlockPtr block, TimePoint received) {
  assert(block);
  AddResult result;
  if (FindAttached(block->hash) != kNoId) {
    result.outcome = AddOutcome::kDuplicate;
    return result;
  }
  if (FindAttached(block->header.parent_hash) == kNoId) {
    // Buffer until the parent shows up (announcement/fetch races make this
    // a normal occurrence, not an error). Interning the missing parent
    // reserves its id, so the eventual attach finds the waiters directly.
    orphans_[InternNode(block->header.parent_hash)].emplace_back(block,
                                                                 received);
    result.outcome = AddOutcome::kOrphaned;
    return result;
  }

  Attach(block, received, result);
  return result;
}

void BlockTree::Attach(BlockPtr block, TimePoint received,
                       AddResult& result) {
  const BlockId parent_id = FindAttached(block->header.parent_hash);
  assert(parent_id != kNoId);
  assert(block->header.number == nodes_[parent_id].block->header.number + 1);
  const std::uint64_t td =
      nodes_[parent_id].total_difficulty + block->header.difficulty;

  const BlockId id = InternNode(block->hash);
  Node& node = nodes_[id];
  if (node.block == nullptr) {
    node.block = block;
    node.total_difficulty = td;
    node.first_seen = received;
    node.parent = parent_id;
    node.next_sibling = nodes_[parent_id].first_child;
    nodes_[parent_id].first_child = id;
    ++attached_;
  }
  // Unconditional on purpose: if the same block was buffered twice as an
  // orphan the second attach is a no-op above, but the height bucket has
  // always picked up the duplicate entry and downstream consumers (uncle
  // scan, HashesAtHeight) see it — preserved bit-for-bit from the
  // hash-map-era tree.
  HeightBucket(block->header.number).push_back(id);

  MaybeReorg(id, result);

  // Adopt any orphans that were waiting for this block, recursively.
  if (const auto it = orphans_.find(id); it != orphans_.end()) {
    auto waiting = std::move(it->second);
    orphans_.erase(it);
    for (auto& [child, child_received] : waiting)
      Attach(child, child_received, result);
  }
}

void BlockTree::MaybeReorg(BlockId candidate, AddResult& result) {
  // Heaviest chain wins; on exact ties keep the first-seen head (Geth keeps
  // its current chain unless the new one is strictly heavier... except that
  // Geth 1.8 actually coin-flips equal-difficulty reorgs; we keep
  // first-seen for determinism, which is also what the paper's measurement
  // nodes effectively record).
  if (nodes_[candidate].total_difficulty <=
      nodes_[head_id_].total_difficulty) {
    if (result.outcome != AddOutcome::kAddedNewHead)
      result.outcome = AddOutcome::kAdded;
    return;
  }

  // Walk the new head's ancestry down to the first block that is already
  // canonical (genesis always is); everything above it on the old chain
  // retires.
  auto is_canonical_id = [&](BlockId id) {
    const std::size_t index =
        nodes_[id].block->header.number - genesis_number_;
    return index < canonical_.size() && canonical_[index] == id;
  };
  BlockId fork = candidate;
  while (!is_canonical_id(fork)) fork = nodes_[fork].parent;
  const std::uint64_t fork_point = nodes_[fork].block->header.number;

  const std::uint64_t old_head_number =
      nodes_[head_id_].block->header.number;
  for (std::uint64_t h = fork_point + 1; h <= old_head_number; ++h) {
    BlockId& slot = canonical_[h - genesis_number_];
    if (slot == kNoId) break;
    result.edits.push_back({nodes_[slot].block, false});
    slot = kNoId;
  }

  // The adoptions follow this switch's retirements, oldest first.
  const std::size_t first_adopted = result.edits.size();
  for (BlockId id = candidate; id != fork; id = nodes_[id].parent) {
    result.edits.push_back({nodes_[id].block, true});
    CanonicalSlot(nodes_[id].block->header.number) = id;
  }
  std::reverse(result.edits.begin() + first_adopted, result.edits.end());

  head_id_ = candidate;
  head_ = nodes_[candidate].block->hash;
  result.outcome = AddOutcome::kAddedNewHead;
}

std::vector<BlockHeader> BlockTree::UncleCandidates(
    const Hash32& parent, std::size_t max_uncles,
    bool forbid_same_miner_as_main) const {
  const BlockId parent_id = FindAttached(parent);
  if (parent_id == kNoId) return {};
  const std::uint64_t child_number =
      nodes_[parent_id].block->header.number + 1;

  // Collect up to 7 ancestors of the child (starting at the parent) plus the
  // uncle hashes they already reference; both are excluded.
  std::vector<BlockId> ancestors;
  std::vector<Hash32> excluded;
  std::unordered_map<std::uint64_t, Address> main_miner_at;  // per height
  BlockId cursor = parent_id;
  for (int depth = 0; depth < 7; ++depth) {
    const Node& n = nodes_[cursor];
    ancestors.push_back(cursor);
    excluded.push_back(n.block->hash);
    main_miner_at.emplace(n.block->header.number, n.block->header.miner);
    for (const auto& u : n.block->uncles) excluded.push_back(u.Hash());
    if (cursor == genesis_id_) break;
    cursor = n.parent;
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
    TimePoint first_seen;
    Hash32 hash;
  };
  std::vector<Candidate> candidates;
  const std::uint64_t min_height =
      child_number > 6 ? child_number - 6 : genesis_number_;
  for (std::uint64_t h = min_height; h < child_number; ++h) {
    const std::size_t index = h - genesis_number_;
    if (index >= by_height_.size()) continue;
    for (const BlockId id : by_height_[index]) {
      const Node& n = nodes_[id];
      if (is_excluded(n.block->hash)) continue;
      // Yellow-paper rule: the uncle's parent must be an ancestor of the
      // including block (i.e., the uncle is a sibling of some ancestor).
      if (!is_ancestor(n.parent)) continue;
      // §V proposal: no uncle credit to a miner that already holds the
      // main-chain slot at the same height.
      if (forbid_same_miner_as_main) {
        const auto main_it = main_miner_at.find(h);
        if (main_it != main_miner_at.end() &&
            main_it->second == n.block->header.miner)
          continue;
      }
      candidates.push_back({n.block->header, n.first_seen, n.block->hash});
    }
  }

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

std::vector<Hash32> BlockTree::HashesAtHeight(std::uint64_t number) const {
  if (number < genesis_number_) return {};
  const std::size_t index = number - genesis_number_;
  if (index >= by_height_.size()) return {};
  std::vector<Hash32> out;
  out.reserve(by_height_[index].size());
  for (const BlockId id : by_height_[index])
    out.push_back(nodes_[id].block->hash);
  return out;
}

std::vector<BlockPtr> BlockTree::AllBlocks() const {
  std::vector<BlockPtr> out;
  out.reserve(attached_);
  for (const Node& node : nodes_)
    if (node.block != nullptr) out.push_back(node.block);
  return out;
}

std::vector<BlockPtr> BlockTree::CanonicalChain() const {
  std::vector<BlockPtr> out;
  const std::uint64_t top = head_number();
  out.reserve(top - genesis_number_ + 1);
  for (std::uint64_t h = genesis_number_; h <= top; ++h) {
    const BlockId id = canonical_[h - genesis_number_];
    assert(id != kNoId);
    out.push_back(nodes_[id].block);
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

  ETHSIM_TREE_CHECK(nodes_.size() == interner_.size());
  std::size_t attached_seen = 0;
  std::size_t child_links = 0;
  for (BlockId id = 0; id < nodes_.size(); ++id) {
    const Node& node = nodes_[id];
    if (node.block == nullptr) {
      // Reserved id (orphan's missing parent): carries no tree state.
      ETHSIM_TREE_CHECK(node.parent == kNoId && node.first_child == kNoId);
      continue;
    }
    ++attached_seen;
    ETHSIM_TREE_CHECK(node.block->hash == interner_.Resolve(id));
    if (id == genesis_id_) {
      ETHSIM_TREE_CHECK(node.parent == kNoId);
      ETHSIM_TREE_CHECK(node.total_difficulty ==
                        node.block->header.difficulty);
    } else {
      ETHSIM_TREE_CHECK(node.parent != kNoId &&
                        node.parent < nodes_.size());
      const Node& parent = nodes_[node.parent];
      ETHSIM_TREE_CHECK(parent.block != nullptr);
      ETHSIM_TREE_CHECK(node.block->header.parent_hash ==
                        parent.block->hash);
      ETHSIM_TREE_CHECK(node.block->header.number ==
                        parent.block->header.number + 1);
      ETHSIM_TREE_CHECK(node.total_difficulty ==
                        parent.total_difficulty +
                            node.block->header.difficulty);
    }
    // Child list: every entry names this node as parent; the list is no
    // longer than the arena, which rules out sibling cycles.
    std::size_t len = 0;
    for (BlockId c = node.first_child; c != kNoId;
         c = nodes_[c].next_sibling) {
      ETHSIM_TREE_CHECK(c < nodes_.size() && nodes_[c].parent == id);
      ETHSIM_TREE_CHECK(++len <= nodes_.size());
    }
    child_links += len;
  }
  ETHSIM_TREE_CHECK(attached_seen == attached_);
  // Every non-genesis attached node appears on exactly one child list.
  ETHSIM_TREE_CHECK(child_links == attached_ - 1);

  // Height buckets refer to attached nodes at the right height. Duplicate
  // entries are legal (double-buffered orphan quirk); each distinct id must
  // appear in exactly one bucket.
  std::size_t distinct_in_buckets = 0;
  std::vector<bool> seen_in_bucket(nodes_.size(), false);
  for (std::size_t index = 0; index < by_height_.size(); ++index) {
    for (const BlockId id : by_height_[index]) {
      ETHSIM_TREE_CHECK(id < nodes_.size() && nodes_[id].block != nullptr);
      ETHSIM_TREE_CHECK(nodes_[id].block->header.number ==
                        genesis_number_ + index);
      if (!seen_in_bucket[id]) {
        seen_in_bucket[id] = true;
        ++distinct_in_buckets;
      }
    }
  }
  ETHSIM_TREE_CHECK(distinct_in_buckets == attached_);

  // Canonical index: contiguous genesis..head, linked parent-to-parent.
  const std::uint64_t top = nodes_[head_id_].block->header.number;
  ETHSIM_TREE_CHECK(top - genesis_number_ < canonical_.size());
  ETHSIM_TREE_CHECK(canonical_[top - genesis_number_] == head_id_);
  ETHSIM_TREE_CHECK(canonical_[0] == genesis_id_);
  for (std::uint64_t h = genesis_number_; h <= top; ++h) {
    const BlockId id = canonical_[h - genesis_number_];
    ETHSIM_TREE_CHECK(id != kNoId && nodes_[id].block != nullptr);
    ETHSIM_TREE_CHECK(nodes_[id].block->header.number == h);
    if (h > genesis_number_)
      ETHSIM_TREE_CHECK(nodes_[id].parent ==
                        canonical_[h - 1 - genesis_number_]);
  }
  for (std::size_t index = top - genesis_number_ + 1;
       index < canonical_.size(); ++index)
    ETHSIM_TREE_CHECK(canonical_[index] == kNoId);

  // Orphan buffers wait on ids that are either unattached or (transiently
  // impossible) attached — after Add returns, a waited-on parent is never
  // attached, since attaching drains its waiters.
  for (const auto& [parent_id, waiting] : orphans_) {
    ETHSIM_TREE_CHECK(parent_id < nodes_.size());
    ETHSIM_TREE_CHECK(nodes_[parent_id].block == nullptr);
    ETHSIM_TREE_CHECK(!waiting.empty());
  }
#undef ETHSIM_TREE_CHECK
  return true;
}

}  // namespace ethsim::chain
