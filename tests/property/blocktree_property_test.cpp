// Property tests: BlockTree invariants hold for arbitrary block DAGs
// delivered in arbitrary orders (the situation real gossip produces).
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>

#include "chain/block_arena.hpp"
#include "chain/blocktree.hpp"
#include "common/random.hpp"

namespace ethsim::chain {
namespace {

BlockArena& Arena() {
  static BlockArena arena;  // outlives every tree in the suite
  return arena;
}

struct GeneratedDag {
  BlockPtr genesis;
  std::vector<BlockPtr> blocks;  // excludes genesis
};

// Random tree of blocks: each new block picks a random existing parent,
// biased toward recent ones (like real mining on near-head forks).
GeneratedDag RandomDag(Rng& rng, std::size_t count) {
  GeneratedDag dag;
  Block g;
  g.header.difficulty = 1'000'000;
  g.Seal();
  dag.genesis = Arena().Adopt(std::move(g));

  std::vector<BlockPtr> all{dag.genesis};
  for (std::size_t i = 0; i < count; ++i) {
    // Bias: parent from the last 8 blocks 80% of the time.
    const std::size_t window = std::min<std::size_t>(all.size(), 8);
    const std::size_t parent_index =
        rng.NextBool(0.8) ? all.size() - 1 - rng.NextBounded(window)
                          : rng.NextBounded(all.size());
    const BlockPtr& parent = all[parent_index];

    Block b;
    b.header.parent_hash = parent->hash;
    b.header.number = parent->header.number + 1;
    b.header.difficulty = 900'000 + rng.NextBounded(200'000);
    b.header.timestamp = parent->header.timestamp + 1 + rng.NextBounded(30);
    b.header.miner.bytes[0] = static_cast<std::uint8_t>(rng.NextBounded(5));
    b.header.mix_seed = rng.Next();
    b.Seal();
    const BlockPtr ptr = Arena().Adopt(std::move(b));
    all.push_back(ptr);
    dag.blocks.push_back(ptr);
  }
  return dag;
}

class BlockTreeInvariants : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(BlockTreeInvariants, HoldUnderArbitraryDeliveryOrder) {
  Rng rng{GetParam()};
  GeneratedDag dag = RandomDag(rng, 120);

  // Shuffle delivery order — orphaning and recursive attachment get a
  // thorough workout.
  std::vector<BlockPtr> order = dag.blocks;
  for (std::size_t i = order.size(); i > 1; --i)
    std::swap(order[i - 1], order[rng.NextBounded(i)]);

  BlockTree tree{dag.genesis};
  std::int64_t tick = 0;
  for (const auto& block : order) {
    tree.Add(block, TimePoint::FromMicros(++tick));
    // Structural invariants after every insert: arena links acyclic, height
    // buckets consistent, canonical slots parent-linked, orphans pending.
    ASSERT_TRUE(tree.CheckInvariants()) << "after insert " << tick;
  }

  // 1. Every block was eventually attached (parents all exist in the DAG).
  EXPECT_EQ(tree.block_count(), dag.blocks.size() + 1);
  EXPECT_EQ(tree.orphan_count(), 0u);

  // 2. Head has the maximum total difficulty in the tree.
  const std::uint64_t head_td = tree.TotalDifficulty(tree.head_hash());
  for (const auto& block : tree.AllBlocks())
    EXPECT_LE(tree.TotalDifficulty(block->hash), head_td);

  // 3. The canonical chain is a connected parent->child path from genesis
  //    to head, and IsCanonical agrees with membership.
  const auto canonical = tree.CanonicalChain();
  ASSERT_FALSE(canonical.empty());
  EXPECT_EQ(canonical.front()->hash, tree.genesis_hash());
  EXPECT_EQ(canonical.back()->hash, tree.head_hash());
  for (std::size_t i = 1; i < canonical.size(); ++i) {
    EXPECT_EQ(canonical[i]->header.parent_hash, canonical[i - 1]->hash);
    EXPECT_EQ(canonical[i]->header.number, canonical[i - 1]->header.number + 1);
  }
  std::unordered_map<Hash32, bool> canonical_set;
  for (const auto& block : canonical) canonical_set.emplace(block->hash, true);
  for (const auto& block : tree.AllBlocks())
    EXPECT_EQ(tree.IsCanonical(block->hash), canonical_set.contains(block->hash));

  // 4. CanonicalAt matches the chain.
  for (const auto& block : canonical)
    EXPECT_EQ(tree.CanonicalAt(block->header.number), block->hash);

  // 5. Total difficulty telescopes along the canonical chain.
  std::uint64_t td = 0;
  for (const auto& block : canonical) {
    td += block->header.difficulty;
    EXPECT_EQ(tree.TotalDifficulty(block->hash), td);
  }
}

TEST_P(BlockTreeInvariants, DeliveryOrderDoesNotChangeFinalHeadTd) {
  Rng rng{GetParam() ^ 0x77};
  GeneratedDag dag = RandomDag(rng, 80);

  // Two different delivery orders; total difficulty of the winning head is
  // order-independent (head identity can differ only among exact TD ties).
  std::vector<BlockPtr> order1 = dag.blocks;
  std::vector<BlockPtr> order2 = dag.blocks;
  for (std::size_t i = order2.size(); i > 1; --i)
    std::swap(order2[i - 1], order2[rng.NextBounded(i)]);

  BlockTree tree1{dag.genesis};
  BlockTree tree2{dag.genesis};
  std::int64_t tick = 0;
  for (const auto& b : order1) tree1.Add(b, TimePoint::FromMicros(++tick));
  for (const auto& b : order2) tree2.Add(b, TimePoint::FromMicros(++tick));
  ASSERT_TRUE(tree1.CheckInvariants());
  ASSERT_TRUE(tree2.CheckInvariants());

  EXPECT_EQ(tree1.TotalDifficulty(tree1.head_hash()),
            tree2.TotalDifficulty(tree2.head_hash()));
  EXPECT_EQ(tree1.head_number(), tree2.head_number());
}

TEST_P(BlockTreeInvariants, UncleCandidatesAlwaysValid) {
  Rng rng{GetParam() ^ 0x1111};
  GeneratedDag dag = RandomDag(rng, 100);
  BlockTree tree{dag.genesis};
  std::int64_t tick = 0;
  for (const auto& b : dag.blocks) tree.Add(b, TimePoint::FromMicros(++tick));
  ASSERT_TRUE(tree.CheckInvariants());

  const auto uncles = tree.UncleCandidates(tree.head_hash());
  EXPECT_LE(uncles.size(), 2u);
  const std::uint64_t child = tree.head_number() + 1;
  for (const auto& uncle : uncles) {
    const Hash32 h = uncle.Hash();
    EXPECT_TRUE(tree.Contains(h));
    EXPECT_FALSE(tree.IsCanonical(h));
    EXPECT_GE(uncle.number + 6, child);
    EXPECT_LT(uncle.number, child);
    // Uncle's parent lies on the canonical ancestor path.
    EXPECT_TRUE(tree.IsCanonical(uncle.parent_hash));
  }
}

// Views over one shared DAG behave exactly like standalone trees. K views
// each import the same forked set (two difficulties, so equal-difficulty
// ties are common; some blocks delivered twice) in their own random order,
// one block per view per step, so blocks are recorded in the DAG by whichever
// view reaches them first and orphan parents are reserved by one view and
// recorded by another. Each view is mirrored by a standalone BlockTree fed
// the same order, and the two must agree on everything a caller can observe.
TEST_P(BlockTreeInvariants, SharedViewsMatchStandaloneTrees) {
  constexpr std::size_t kViews = 6;
  Rng rng{GetParam() ^ 0x5eed};
  Block g;
  g.header.difficulty = 1000;
  g.Seal();
  const BlockPtr genesis = Arena().Adopt(std::move(g));
  std::vector<BlockPtr> blocks;
  for (std::size_t i = 0; i < 90; ++i) {
    const std::size_t window = std::min<std::size_t>(blocks.size(), 5);
    const BlockPtr parent =
        window == 0 ? genesis
                    : blocks[blocks.size() - 1 - rng.NextBounded(window)];
    Block b;
    b.header.parent_hash = parent->hash;
    b.header.number = parent->header.number + 1;
    b.header.difficulty = 1000 + 500 * rng.NextBounded(2);
    b.header.timestamp = parent->header.timestamp + 1 + rng.NextBounded(20);
    b.header.miner.bytes[0] = static_cast<std::uint8_t>(rng.NextBounded(3));
    b.header.mix_seed = rng.Next();
    b.Seal();
    blocks.push_back(Arena().Adopt(std::move(b)));
  }

  BlockDag dag{genesis};
  std::vector<std::unique_ptr<BlockTree>> views, alone;
  std::vector<std::vector<BlockPtr>> orders;
  for (std::size_t v = 0; v < kViews; ++v) {
    views.push_back(std::make_unique<BlockTree>(dag));
    alone.push_back(std::make_unique<BlockTree>(genesis));
    std::vector<BlockPtr> order = blocks;
    for (int i = 0; i < 15; ++i)
      order.push_back(blocks[rng.NextBounded(blocks.size())]);
    for (std::size_t i = order.size(); i > 1; --i)
      std::swap(order[i - 1], order[rng.NextBounded(i)]);
    orders.push_back(std::move(order));
  }

  const auto hashes = [](const std::vector<BlockHeader>& headers) {
    std::vector<Hash32> out;
    for (const auto& h : headers) out.push_back(h.Hash());
    return out;
  };
  const auto edits = [](const BlockTree::AddResult& r) {
    std::vector<std::pair<BlockPtr, bool>> out;
    for (const auto& e : r.edits) out.emplace_back(e.block, e.adopted);
    return out;
  };
  for (std::size_t step = 0; step < orders[0].size(); ++step) {
    for (std::size_t v = 0; v < kViews; ++v) {
      const BlockPtr block = orders[v][step];
      const TimePoint at = TimePoint::FromMicros(
          static_cast<std::int64_t>(step * 1000 + rng.NextBounded(1000)));
      const BlockTree::AddResult shared = views[v]->Add(block, at);
      const BlockTree::AddResult own = alone[v]->Add(block, at);
      ASSERT_EQ(shared.outcome, own.outcome) << "view " << v << " step " << step;
      ASSERT_EQ(edits(shared), edits(own)) << "view " << v << " step " << step;
      ASSERT_TRUE(views[v]->CheckInvariants()) << "view " << v;
      ASSERT_EQ(views[v]->head_hash(), alone[v]->head_hash());
      ASSERT_EQ(views[v]->block_count(), alone[v]->block_count());
      ASSERT_EQ(views[v]->orphan_count(), alone[v]->orphan_count());
    }
  }
  ASSERT_TRUE(dag.CheckInvariants());

  for (std::size_t v = 0; v < kViews; ++v) {
    const BlockTree& view = *views[v];
    const BlockTree& own = *alone[v];
    EXPECT_EQ(view.CanonicalChain(), own.CanonicalChain());
    for (const BlockPtr& block : blocks) {
      const Hash32& h = block->hash;
      EXPECT_EQ(view.Contains(h), own.Contains(h));
      EXPECT_EQ(view.FirstSeen(h), own.FirstSeen(h));
      EXPECT_EQ(view.TotalDifficulty(h), own.TotalDifficulty(h));
      EXPECT_EQ(view.IsCanonical(h), own.IsCanonical(h));
      for (const bool forbid : {false, true})
        EXPECT_EQ(hashes(view.UncleCandidates(h, 2, forbid)),
                  hashes(own.UncleCandidates(h, 2, forbid)));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BlockTreeInvariants,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 42,
                                           1337));

}  // namespace
}  // namespace ethsim::chain
