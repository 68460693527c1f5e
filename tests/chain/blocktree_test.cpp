#include "chain/blocktree.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <utility>
#include <vector>

#include "chain/block_arena.hpp"

namespace ethsim::chain {
namespace {

using namespace ethsim::literals;

BlockArena& Arena() {
  static BlockArena arena;  // outlives every tree in the suite
  return arena;
}

Address Addr(std::uint8_t tag) {
  Address a;
  a.bytes[19] = tag;
  return a;
}

BlockPtr MakeGenesis(std::uint64_t number = 0) {
  Block b;
  b.header.number = number;
  b.header.difficulty = 1000;
  b.Seal();
  return Arena().Adopt(std::move(b));
}

// Child with explicit difficulty and a mix_seed to force unique hashes.
BlockPtr Child(const BlockPtr& parent, std::uint64_t difficulty,
               std::uint64_t mix_seed = 0, Address miner = Addr(1)) {
  Block b;
  b.header.parent_hash = parent->hash;
  b.header.number = parent->header.number + 1;
  b.header.difficulty = difficulty;
  b.header.timestamp = parent->header.timestamp + 13;
  b.header.miner = miner;
  b.header.mix_seed = mix_seed;
  b.Seal();
  return Arena().Adopt(std::move(b));
}

TimePoint At(std::int64_t ms) { return TimePoint::FromMicros(ms * 1000); }

// An Add's chain edits as (block, adopted?) pairs, so a whole sequence
// compares in one assertion.
using Edit = std::pair<BlockPtr, bool>;
std::vector<Edit> EditsOf(const BlockTree::AddResult& result) {
  std::vector<Edit> out;
  for (const auto& [block, adopted] : result.edits)
    out.emplace_back(block, adopted);
  return out;
}

struct BlockTreeFixture : ::testing::Test {
  BlockPtr genesis = MakeGenesis();
  BlockTree tree{genesis};
};

TEST_F(BlockTreeFixture, GenesisIsHeadAndCanonical) {
  EXPECT_EQ(tree.head_hash(), genesis->hash);
  EXPECT_EQ(tree.head_number(), 0u);
  EXPECT_TRUE(tree.IsCanonical(genesis->hash));
  EXPECT_EQ(tree.block_count(), 1u);
  EXPECT_EQ(tree.TotalDifficulty(genesis->hash), 1000u);
}

TEST_F(BlockTreeFixture, LinearExtension) {
  const BlockPtr b1 = Child(genesis, 1000);
  const BlockPtr b2 = Child(b1, 1000);
  auto r1 = tree.Add(b1, At(1));
  EXPECT_EQ(r1.outcome, BlockTree::AddOutcome::kAddedNewHead);
  EXPECT_EQ(EditsOf(r1), (std::vector<Edit>{{b1, true}}));

  tree.Add(b2, At(2));
  EXPECT_EQ(tree.head_hash(), b2->hash);
  EXPECT_EQ(tree.head_number(), 2u);
  EXPECT_EQ(tree.TotalDifficulty(b2->hash), 3000u);
  EXPECT_EQ(tree.CanonicalAt(1), b1->hash);
  EXPECT_EQ(tree.CanonicalChain().size(), 3u);
}

TEST_F(BlockTreeFixture, DuplicateIsReported) {
  const BlockPtr b1 = Child(genesis, 1000);
  tree.Add(b1, At(1));
  EXPECT_EQ(tree.Add(b1, At(2)).outcome, BlockTree::AddOutcome::kDuplicate);
  EXPECT_EQ(tree.block_count(), 2u);
  // First-seen time is preserved.
  EXPECT_EQ(tree.FirstSeen(b1->hash), At(1));
}

TEST_F(BlockTreeFixture, EqualDifficultyForkKeepsFirstSeenHead) {
  const BlockPtr a = Child(genesis, 1000, 1);
  const BlockPtr b = Child(genesis, 1000, 2);
  tree.Add(a, At(1));
  const auto r = tree.Add(b, At(2));
  EXPECT_EQ(r.outcome, BlockTree::AddOutcome::kAdded);
  EXPECT_EQ(tree.head_hash(), a->hash);
  EXPECT_TRUE(tree.IsCanonical(a->hash));
  EXPECT_FALSE(tree.IsCanonical(b->hash));
  EXPECT_TRUE(tree.Contains(b->hash));  // the fork is kept
}

TEST_F(BlockTreeFixture, HeavierForkTriggersReorg) {
  const BlockPtr a1 = Child(genesis, 1000, 1);
  const BlockPtr a2 = Child(a1, 1000, 1);
  tree.Add(a1, At(1));
  tree.Add(a2, At(2));

  const BlockPtr b1 = Child(genesis, 1500, 2);
  const BlockPtr b2 = Child(b1, 1500, 2);
  tree.Add(b1, At(3));  // td 2500 vs 3000: no reorg yet
  EXPECT_EQ(tree.head_hash(), a2->hash);

  const auto r = tree.Add(b2, At(4));  // td 4000 > 3000: reorg
  EXPECT_EQ(r.outcome, BlockTree::AddOutcome::kAddedNewHead);
  EXPECT_EQ(tree.head_hash(), b2->hash);
  // Retirements oldest first, then adoptions oldest first.
  EXPECT_EQ(EditsOf(r), (std::vector<Edit>{
                            {a1, false}, {a2, false}, {b1, true}, {b2, true}}));
  EXPECT_TRUE(tree.IsCanonical(b1->hash));
  EXPECT_FALSE(tree.IsCanonical(a1->hash));
}

TEST_F(BlockTreeFixture, OrphanBufferedUntilParentArrives) {
  const BlockPtr b1 = Child(genesis, 1000);
  const BlockPtr b2 = Child(b1, 1000);
  const auto r_orphan = tree.Add(b2, At(1));
  EXPECT_EQ(r_orphan.outcome, BlockTree::AddOutcome::kOrphaned);
  EXPECT_EQ(tree.orphan_count(), 1u);
  EXPECT_FALSE(tree.Contains(b2->hash));

  const auto r = tree.Add(b1, At(2));
  EXPECT_EQ(r.outcome, BlockTree::AddOutcome::kAddedNewHead);
  EXPECT_EQ(tree.orphan_count(), 0u);
  EXPECT_TRUE(tree.Contains(b2->hash));
  EXPECT_EQ(tree.head_hash(), b2->hash);
  // Both adopted in one go, parent first.
  EXPECT_EQ(EditsOf(r), (std::vector<Edit>{{b1, true}, {b2, true}}));
}

TEST_F(BlockTreeFixture, OrphanSiblingCascadeAdoptsThenRetires) {
  // C1 and C2 wait on their unknown parent B; C2 is one unit heavier. B's
  // arrival attaches B, then C1 (a new head), then C2 (a heavier sibling
  // head), so C1 joins and leaves the chain inside one Add.
  const BlockPtr b = Child(genesis, 1000);
  const BlockPtr c1 = Child(b, 1000, 1);
  const BlockPtr c2 = Child(b, 1001, 2);
  EXPECT_EQ(tree.Add(c1, At(1)).outcome, BlockTree::AddOutcome::kOrphaned);
  EXPECT_EQ(tree.Add(c2, At(2)).outcome, BlockTree::AddOutcome::kOrphaned);

  const auto r = tree.Add(b, At(3));
  EXPECT_EQ(r.outcome, BlockTree::AddOutcome::kAddedNewHead);
  EXPECT_EQ(EditsOf(r), (std::vector<Edit>{
                            {b, true}, {c1, true}, {c1, false}, {c2, true}}));
  EXPECT_EQ(tree.head_hash(), c2->hash);
  EXPECT_FALSE(tree.IsCanonical(c1->hash));
  EXPECT_TRUE(tree.CheckInvariants());
}

TEST_F(BlockTreeFixture, TwiceBufferedOrphanIsOneUncleCandidate) {
  // Y and X both wait on their unknown parent P, X buffered twice (a pushed
  // copy and a fetched one). P's arrival attaches Y (the head) and X (an
  // equal-difficulty sibling) once each, so a block built on Y may name X as
  // an uncle once, never twice.
  const BlockPtr p = Child(genesis, 1000);
  const BlockPtr y = Child(p, 1000, 1);
  const BlockPtr x = Child(p, 1000, 2, Addr(9));
  EXPECT_EQ(tree.Add(y, At(1)).outcome, BlockTree::AddOutcome::kOrphaned);
  EXPECT_EQ(tree.Add(x, At(2)).outcome, BlockTree::AddOutcome::kOrphaned);
  EXPECT_EQ(tree.Add(x, At(3)).outcome, BlockTree::AddOutcome::kOrphaned);

  const auto r = tree.Add(p, At(4));
  EXPECT_EQ(EditsOf(r), (std::vector<Edit>{{p, true}, {y, true}}));
  EXPECT_EQ(tree.head_hash(), y->hash);
  EXPECT_EQ(tree.FirstSeen(x->hash), At(2));
  const auto uncles = tree.UncleCandidates(y->hash);
  ASSERT_EQ(uncles.size(), 1u);
  EXPECT_EQ(uncles[0].Hash(), x->hash);
  EXPECT_TRUE(tree.CheckInvariants());
}

TEST_F(BlockTreeFixture, OrphanChainsResolveRecursively) {
  const BlockPtr b1 = Child(genesis, 1000);
  const BlockPtr b2 = Child(b1, 1000);
  const BlockPtr b3 = Child(b2, 1000);
  tree.Add(b3, At(1));
  tree.Add(b2, At(2));
  EXPECT_EQ(tree.orphan_count(), 2u);
  tree.Add(b1, At(3));
  EXPECT_EQ(tree.orphan_count(), 0u);
  EXPECT_EQ(tree.head_hash(), b3->hash);
  EXPECT_EQ(tree.head_number(), 3u);
}

TEST_F(BlockTreeFixture, UncleCandidateBasic) {
  // Fork at height 1; build on `a`, the uncle candidate is `b`.
  const BlockPtr a = Child(genesis, 1000, 1);
  const BlockPtr b = Child(genesis, 1000, 2, Addr(9));
  tree.Add(a, At(1));
  tree.Add(b, At(2));
  const auto uncles = tree.UncleCandidates(a->hash);
  ASSERT_EQ(uncles.size(), 1u);
  EXPECT_EQ(uncles[0].Hash(), b->hash);
}

TEST_F(BlockTreeFixture, AncestorsAreNotUncleCandidates) {
  const BlockPtr b1 = Child(genesis, 1000);
  tree.Add(b1, At(1));
  EXPECT_TRUE(tree.UncleCandidates(b1->hash).empty());
}

TEST_F(BlockTreeFixture, AlreadyReferencedUnclesAreExcluded) {
  const BlockPtr a = Child(genesis, 1000, 1);
  const BlockPtr b = Child(genesis, 1000, 2);
  tree.Add(a, At(1));
  tree.Add(b, At(2));

  // a2 references b as an uncle.
  Block a2_body;
  a2_body.header.parent_hash = a->hash;
  a2_body.header.number = 2;
  a2_body.header.difficulty = 1000;
  a2_body.uncles.push_back(b->header);
  a2_body.Seal();
  const BlockPtr a2 = Arena().Adopt(std::move(a2_body));
  tree.Add(a2, At(3));

  EXPECT_TRUE(tree.UncleCandidates(a2->hash).empty());
}

TEST_F(BlockTreeFixture, UncleWindowIsSixGenerations) {
  const BlockPtr stale = Child(genesis, 1000, 99, Addr(7));  // height-1 fork
  tree.Add(stale, At(1));

  BlockPtr tip = Child(genesis, 1000, 1);
  tree.Add(tip, At(2));
  // Extend the canonical chain to height 6: stale (height 1) is exactly at
  // the edge of the window for a block at height 7.
  for (int i = 0; i < 5; ++i) {
    tip = Child(tip, 1000, 1);
    tree.Add(tip, At(3 + i));
  }
  EXPECT_EQ(tip->header.number, 6u);
  ASSERT_EQ(tree.UncleCandidates(tip->hash).size(), 1u);

  // One more block: stale falls out of the window.
  tip = Child(tip, 1000, 1);
  tree.Add(tip, At(20));
  EXPECT_TRUE(tree.UncleCandidates(tip->hash).empty());
}

TEST_F(BlockTreeFixture, UncleCandidatesCappedAtTwoAndOrderedByFirstSeen) {
  const BlockPtr main1 = Child(genesis, 1000, 1);
  tree.Add(main1, At(0));
  const BlockPtr u1 = Child(genesis, 1000, 11, Addr(2));
  const BlockPtr u2 = Child(genesis, 1000, 12, Addr(3));
  const BlockPtr u3 = Child(genesis, 1000, 13, Addr(4));
  tree.Add(u2, At(2));
  tree.Add(u1, At(1));
  tree.Add(u3, At(3));

  const auto uncles = tree.UncleCandidates(main1->hash, 2);
  ASSERT_EQ(uncles.size(), 2u);
  EXPECT_EQ(uncles[0].Hash(), u1->hash);
  EXPECT_EQ(uncles[1].Hash(), u2->hash);
}

TEST_F(BlockTreeFixture, NephewForkUncleRequiresAncestorParent) {
  // A fork of a fork whose parent is NOT on the ancestor path of the
  // including block must not be offered as an uncle.
  const BlockPtr a1 = Child(genesis, 1000, 1);
  const BlockPtr b1 = Child(genesis, 1000, 2);
  const BlockPtr b2 = Child(b1, 1000, 2);  // builds on the losing fork
  tree.Add(a1, At(1));
  tree.Add(b1, At(2));
  tree.Add(b2, At(3));

  const BlockPtr a2 = Child(a1, 1000, 1);
  tree.Add(a2, At(4));
  // Candidates for a block on a2: b1 qualifies (parent=genesis is an
  // ancestor); b2 does not (parent=b1 is not an ancestor of the new block).
  const auto uncles = tree.UncleCandidates(a2->hash);
  ASSERT_EQ(uncles.size(), 1u);
  EXPECT_EQ(uncles[0].Hash(), b1->hash);
}

TEST_F(BlockTreeFixture, GenesisAtPaperHeight) {
  BlockPtr paper_genesis = MakeGenesis(7'479'573);
  BlockTree paper_tree{paper_genesis};
  EXPECT_EQ(paper_tree.genesis_number(), 7'479'573u);
  const BlockPtr b1 = Child(paper_genesis, 1000);
  paper_tree.Add(b1, At(1));
  EXPECT_EQ(paper_tree.head_number(), 7'479'574u);
  EXPECT_EQ(paper_tree.CanonicalChain().size(), 2u);
}

TEST_F(BlockTreeFixture, AllBlocksIncludesForks) {
  tree.Add(Child(genesis, 1000, 1), At(1));
  tree.Add(Child(genesis, 1000, 2), At(2));
  EXPECT_EQ(tree.AllBlocks().size(), 3u);
}


TEST_F(BlockTreeFixture, SectionVRuleForbidsOneMinerUncles) {
  // Miner 1 produces both the canonical block and a fork at height 1.
  const BlockPtr main1 = Child(genesis, 1000, 1, Addr(1));
  const BlockPtr fork_same = Child(genesis, 1000, 2, Addr(1));
  const BlockPtr fork_other = Child(genesis, 1000, 3, Addr(2));
  tree.Add(main1, At(1));
  tree.Add(fork_same, At(2));
  tree.Add(fork_other, At(3));

  // Vanilla Ethereum rules accept both forks as uncles.
  const auto vanilla = tree.UncleCandidates(main1->hash, 2, false);
  EXPECT_EQ(vanilla.size(), 2u);

  // The paper's SV proposal rejects the same-miner fork, keeping the
  // honest small miner's block eligible.
  const auto strict = tree.UncleCandidates(main1->hash, 2, true);
  ASSERT_EQ(strict.size(), 1u);
  EXPECT_EQ(strict[0].Hash(), fork_other->hash);
}

TEST_F(BlockTreeFixture, SectionVRuleOnlyComparesSameHeight) {
  // Miner 1 has the main block at height 1; its fork at height 1 is banned,
  // but a miner-1 fork at height 2 (where miner 2 holds the main slot)
  // remains eligible.
  const BlockPtr main1 = Child(genesis, 1000, 1, Addr(1));
  tree.Add(main1, At(1));
  const BlockPtr main2 = Child(main1, 1000, 1, Addr(2));
  tree.Add(main2, At(2));
  const BlockPtr fork2_by1 = Child(main1, 1000, 9, Addr(1));
  tree.Add(fork2_by1, At(3));

  const auto strict = tree.UncleCandidates(main2->hash, 2, true);
  ASSERT_EQ(strict.size(), 1u);
  EXPECT_EQ(strict[0].Hash(), fork2_by1->hash);
}

}  // namespace
}  // namespace ethsim::chain
