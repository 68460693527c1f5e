#include "chain/block_dag.hpp"

#include <cassert>
#include <cstdio>

namespace ethsim::chain {

BlockDag::BlockDag(BlockPtr genesis) {
  assert(genesis && genesis->hash == genesis->header.Hash());
  const BlockId id = Intern(genesis->hash);
  entries_[id] = {genesis, genesis->header.difficulty, genesis->header.number,
                  kNoId};
  by_height_.push_back({id});
}

BlockDag::BlockId BlockDag::Intern(const Hash32& hash) {
  const BlockId id = ids_.Intern(hash);
  if (id >= entries_.size()) entries_.resize(id + 1);
  return id;
}

BlockDag::BlockId BlockDag::Record(BlockPtr block, BlockId parent) {
  const BlockId id = Intern(block->hash);
  if (recorded(id)) return id;
  const Entry& up = entries_[parent];
  assert(up.block != nullptr && block->header.parent_hash == up.block->hash);
  assert(block->header.number == up.number + 1);
  entries_[id] = {block, up.total_difficulty + block->header.difficulty,
                  block->header.number, parent};
  const std::size_t index = block->header.number - genesis_number();
  if (index >= by_height_.size()) by_height_.resize(index + 1);
  by_height_[index].push_back(id);
  return id;
}

std::span<const BlockDag::BlockId> BlockDag::AtHeight(
    std::uint64_t number) const {
  if (number < genesis_number()) return {};
  const std::size_t index = number - genesis_number();
  if (index >= by_height_.size()) return {};
  return by_height_[index];
}

std::size_t BlockDag::allocated_bytes() const {
  std::size_t total = ids_.allocated_bytes() +
                      entries_.capacity() * sizeof(Entry) +
                      by_height_.capacity() * sizeof(by_height_[0]);
  for (const auto& ids : by_height_) total += ids.capacity() * sizeof(BlockId);
  return total;
}

bool BlockDag::CheckInvariants() const {
#define ETHSIM_DAG_CHECK(cond)                                              \
  do {                                                                      \
    if (!(cond)) {                                                          \
      std::fprintf(stderr, "BlockDag invariant violated: %s (%s:%d)\n",     \
                   #cond, __FILE__, __LINE__);                              \
      return false;                                                         \
    }                                                                       \
  } while (0)

  ETHSIM_DAG_CHECK(entries_.size() == ids_.size());
  ETHSIM_DAG_CHECK(recorded(genesis_id()));
  std::size_t recorded_seen = 0;
  for (BlockId id = 0; id < entries_.size(); ++id) {
    const Entry& entry = entries_[id];
    if (entry.block == nullptr) {
      ETHSIM_DAG_CHECK(entry.parent == kNoId && entry.total_difficulty == 0);
      continue;
    }
    ++recorded_seen;
    ETHSIM_DAG_CHECK(entry.block->hash == ids_.Resolve(id));
    ETHSIM_DAG_CHECK(entry.number == entry.block->header.number);
    if (id == genesis_id()) {
      ETHSIM_DAG_CHECK(entry.parent == kNoId);
      ETHSIM_DAG_CHECK(entry.total_difficulty ==
                       entry.block->header.difficulty);
      continue;
    }
    // Heights fall by one along every parent link, so parent links cannot
    // form a cycle.
    ETHSIM_DAG_CHECK(entry.parent < entries_.size() && recorded(entry.parent));
    const Entry& parent = entries_[entry.parent];
    ETHSIM_DAG_CHECK(entry.block->header.parent_hash == parent.block->hash);
    ETHSIM_DAG_CHECK(entry.number == parent.number + 1);
    ETHSIM_DAG_CHECK(entry.total_difficulty ==
                     parent.total_difficulty + entry.block->header.difficulty);
  }

  // Each recorded id sits exactly once in its own height's list.
  std::size_t listed = 0;
  std::vector<bool> seen(entries_.size(), false);
  for (std::size_t index = 0; index < by_height_.size(); ++index) {
    for (const BlockId id : by_height_[index]) {
      ETHSIM_DAG_CHECK(id < entries_.size() && recorded(id));
      ETHSIM_DAG_CHECK(entries_[id].number == genesis_number() + index);
      ETHSIM_DAG_CHECK(!seen[id]);
      seen[id] = true;
      ++listed;
    }
  }
  ETHSIM_DAG_CHECK(listed == recorded_seen);
#undef ETHSIM_DAG_CHECK
  return true;
}

}  // namespace ethsim::chain
