// Property tests: every block the mining layer emits is consensus-valid and
// consistent with its ground-truth mint record, across seeds.
#include <gtest/gtest.h>

#include <cmath>

#include "chain/validation.hpp"
#include "core/experiment.hpp"

namespace ethsim::miner {
namespace {

class MinerInvariants : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(MinerInvariants, AllMintedBlocksAreConsensusValid) {
  core::ExperimentConfig cfg = core::presets::SmallStudy(25);
  cfg.duration = Duration::Minutes(25);
  cfg.workload.rate_per_sec = 0.5;
  cfg.seed = GetParam();
  core::Experiment exp{cfg};
  exp.Run();

  const auto& tree = exp.reference_tree();
  std::size_t checked = 0;
  for (const auto& record : exp.minted()) {
    const chain::BlockPtr parent = tree.Get(record.block->header.parent_hash);
    if (!parent) continue;  // parent view lived on another node's tree
    EXPECT_EQ(chain::ValidateBlock(*record.block, parent->header),
              chain::ValidationError::kNone)
        << "block #" << record.block->header.number;
    ++checked;
  }
  EXPECT_GT(checked, exp.minted().size() / 2);
}

TEST_P(MinerInvariants, MintRecordsAreInternallyConsistent) {
  core::ExperimentConfig cfg = core::presets::SmallStudy(25);
  cfg.duration = Duration::Minutes(25);
  cfg.workload.rate_per_sec = 0.5;
  cfg.seed = GetParam() ^ 0xf00d;
  core::Experiment exp{cfg};
  exp.Run();

  std::unordered_map<Hash32, const MintRecord*> by_hash;
  for (const auto& record : exp.minted()) by_hash[record.block->hash] = &record;

  for (const auto& record : exp.minted()) {
    // Coinbase matches the winning pool.
    EXPECT_EQ(record.block->header.miner,
              exp.config().pools[record.pool_index].coinbase);
    // Deliberate-empty records really are empty.
    if (record.deliberate_empty) {
      EXPECT_TRUE(record.block->IsEmpty());
    }
    // Fork siblings pair with a same-pool, same-height primary, and the
    // same-txset flag agrees with the tx-root comparison.
    if (record.is_fork_sibling) {
      const auto it = by_hash.find(record.primary_sibling);
      ASSERT_NE(it, by_hash.end());
      const MintRecord& primary = *it->second;
      EXPECT_EQ(primary.pool_index, record.pool_index);
      EXPECT_EQ(primary.block->header.number, record.block->header.number);
      EXPECT_NE(primary.block->hash, record.block->hash);
      EXPECT_EQ(record.same_txset_as_primary,
                primary.block->header.tx_root == record.block->header.tx_root);
    }
  }
}

TEST_P(MinerInvariants, WinnerCountsTrackShares) {
  core::ExperimentConfig cfg = core::presets::SmallStudy(20);
  cfg.duration = Duration::Hours(2);
  cfg.workload.rate_per_sec = 0;
  cfg.seed = GetParam() ^ 0xcafe;
  core::Experiment exp{cfg};
  exp.Run();

  std::vector<std::size_t> counts(cfg.pools.size(), 0);
  std::size_t primaries = 0;
  for (const auto& record : exp.minted()) {
    if (record.is_fork_sibling) continue;
    ++counts[record.pool_index];
    ++primaries;
  }
  ASSERT_GT(primaries, 300u);
  // Chi-square-ish sanity: the two biggest pools land within 3 sigma of
  // their binomial expectation.
  for (std::size_t p = 0; p < 2; ++p) {
    const double share = cfg.pools[p].hashrate_share;
    const double expected = share * static_cast<double>(primaries);
    const double sigma = std::sqrt(expected * (1 - share));
    EXPECT_NEAR(static_cast<double>(counts[p]), expected, 3.5 * sigma)
        << cfg.pools[p].name;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MinerInvariants, ::testing::Values(1, 2, 3));

}  // namespace
}  // namespace ethsim::miner
